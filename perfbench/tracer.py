"""Spans around the public functions of each l1coreg module, installed from
outside the package.

:class:`Tracer` replaces every public function and public method of the
modules in :data:`LAYERS` (plus the scipy linear-algebra entry points the
solvers call) by a wrapper, and restores the originals on exit.  Wrappers
record, per call:

* the layer's *self time*: time during which the innermost wrapped call
  belongs to that layer, so a layer's time excludes the library layers it
  calls into;
* a call into the layer, when the caller is in another layer;
* the inclusive time of the functions given a tag in ``_OVERRIDES``,
  counted at their outermost call only;
* a span ``(id, name, start, end, parent, command)`` for coarse calls, or,
  for the hot inner calls (transforms, operator applies, prox, linear
  solves), one count-plus-total aggregate per ``(command, parent span,
  name)`` instead of a span each.

Spans and aggregates stay in memory until :meth:`Tracer.dump`.  Calls from
threads other than the one that enabled the tracer pass through unrecorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

LAYERS = ("basis", "operators", "regularizers", "solvers", "certificates",
          "experiments", "cli")

#: Layers whose calls are aggregated rather than recorded as spans.
_HOT_LAYERS = {"basis", "operators", "regularizers", "solvers.linsolve"}

#: name -> (accounting layer, tag, hot).  Names not listed take their
#: module as layer, no tag, and hot iff the module is a hot layer.
_OVERRIDES = {
    # construction cost, reported apart from the transforms
    "basis.WaveletBasis.__init__": ("basis.init", "basis.init", False),
    "operators.materialize": ("operators", "operators.materialize", False),
    "operators.operator_norm": ("operators", "operators.norm", False),
    "solvers.solve_relaxed": ("solvers", "solvers.solve", False),
    "solvers.solve_strict": ("solvers", "solvers.solve", False),
    "scipy.linalg.cho_solve": ("solvers.linsolve", "solvers.linsolve", True),
    "scipy.sparse.linalg.cg": ("solvers.linsolve", "solvers.linsolve", True),
    "scipy.linalg.cho_factor": ("solvers.factor", "solvers.factor", False),
    "certificates.find_certificate_relaxed":
        ("certificates", "certificates.search", False),
    "certificates.find_certificate_strict":
        ("certificates", "certificates.search", False),
    "certificates.check_restricted_injectivity":
        ("certificates", "certificates.injectivity", False),
    "certificates.rate_constants_relaxed":
        ("certificates", "certificates.constants", False),
    "certificates.rate_constants_strict":
        ("certificates", "certificates.constants", False),
    "experiments.run_sweep": ("experiments", "experiments.sweep", False),
    "experiments.emit_csv": ("experiments", "experiments.emit", False),
    "experiments.emit_svg": ("experiments", "experiments.emit", False),
    "cli.main": ("cli", "cli.main", False),
}

#: Tags whose (arguments, result) are kept for the caller to inspect.
OBSERVED = {"solvers.solve", "certificates.search"}


class _Site:
    __slots__ = ("name", "layer", "tag", "hot")

    def __init__(self, name, layer, tag, hot):
        self.name = name
        self.layer = layer
        self.tag = tag
        self.hot = hot


def _public_callables(module, short):
    """(owner, attribute, function, name) for each public function/method."""
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, f"{short}.{attr}"
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                name = f"{short}.{attr}.{meth}"
                if (meth.startswith("_") and name not in _OVERRIDES) or \
                        not inspect.isfunction(fn):
                    continue
                yield obj, meth, fn, name


class Tracer:
    """Collects spans, per-layer self times and tagged totals while enabled."""

    def __init__(self):
        self.enabled = False
        self._thread = None
        self._patches = []
        self.reset()

    # -- recording -------------------------------------------------------
    def reset(self):
        self.command = None
        self._stack = [["benchmark", 0.0, None]]
        self._next_span = 0
        self._depth = {}
        self.spans = []
        self.aggregates = {}
        self.layer_self = {}
        self.layer_calls = {}
        self.tag_total = {}
        self.tag_calls = {}
        self.observed = []

    def _call(self, site, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        if site.hot:
            span_id = parent[2]
        else:
            span_id = self._next_span
            self._next_span += 1
        frame = [site.layer, 0.0, span_id]
        tag = site.tag
        outer = tag is not None and self._depth.get(tag, 0) == 0
        if tag is not None:
            self._depth[tag] = self._depth.get(tag, 0) + 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if tag is not None:
                self._depth[tag] -= 1
            dt = end - start
            parent[1] += dt
            self_dt = dt - frame[1]
            layer = site.layer
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + self_dt
            if parent[0] != layer:
                self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
            if outer:
                self.tag_total[tag] = self.tag_total.get(tag, 0.0) + dt
                self.tag_calls[tag] = self.tag_calls.get(tag, 0) + 1
            if site.hot:
                key = (self.command, parent[2], site.name)
                agg = self.aggregates.get(key)
                if agg is None:
                    self.aggregates[key] = [1, dt, self_dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += self_dt
            else:
                self.spans.append(
                    (span_id, site.name, start, end, parent[2], self.command)
                )
        if outer and tag in OBSERVED:
            self.observed.append((site.name, args, kwargs, result))
        return result

    # -- installation ----------------------------------------------------
    def _wrap(self, fn, site):
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or get_ident() != self._thread:
                return fn(*args, **kwargs)
            return self._call(site, fn, args, kwargs)

        return wrapper

    def _site(self, name, module_layer):
        layer, tag, hot = _OVERRIDES.get(
            name, (module_layer, None, module_layer in _HOT_LAYERS)
        )
        return _Site(name, layer, tag, hot)

    def install(self):
        """Wrap every public callable; every module alias is rebound too."""
        import scipy.linalg
        import scipy.sparse.linalg

        import l1coreg

        replaced = {}
        for short in LAYERS:
            module = sys.modules[f"l1coreg.{short}"]
            for owner, attr, fn, name in _public_callables(module, short):
                wrapper = self._wrap(fn, self._site(name, short))
                self._patch(owner, attr, wrapper)
                if owner is module:
                    replaced[id(fn)] = (fn, wrapper)
        for owner, attr, name in ((scipy.linalg, "cho_factor", "scipy.linalg.cho_factor"),
                                  (scipy.linalg, "cho_solve", "scipy.linalg.cho_solve"),
                                  (scipy.sparse.linalg, "cg", "scipy.sparse.linalg.cg")):
            self._patch(owner, attr, self._wrap(getattr(owner, attr),
                                                self._site(name, None)))
        # names imported with ``from .x import f`` are separate bindings
        modules = [l1coreg] + [sys.modules[f"l1coreg.{s}"] for s in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        self._thread = threading.get_ident()
        self.enabled = True
        return self

    def __exit__(self, *exc):
        self.enabled = False
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------
    def dump(self, path, t0=0.0):
        """Write spans (times relative to ``t0``) and aggregates as JSON."""
        payload = {
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "command"],
            "spans": [
                [sid, name, start - t0, end - t0, parent, cmd]
                for sid, name, start, end, parent, cmd in self.spans
            ],
            "aggregate_fields": ["command", "parent", "name", "calls", "total_s",
                                 "self_s"],
            "aggregates": [
                [cmd, parent, name, count, total, self_t]
                for (cmd, parent, name), (count, total, self_t)
                in sorted(self.aggregates.items(), key=lambda kv: str(kv[0]))
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
