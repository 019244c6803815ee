"""Correctness checks on what the CLI commands print or write.

Each ``check_*`` function takes a command, its exit code and captured stdout
(plus its output directory) and returns a list of failure messages; an empty
list means the command passed.  :class:`Checker` applies them to every
command run of a benchmark run and counts the failures.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from kkt import kkt_relaxed, kkt_strict
from l1coreg import materialize
from workloads import build_instances

#: Paper-claim window on a certified sweep: linear rate with a clean fit.
SLOPE_RANGE = (0.85, 1.15)
MIN_R_SQUARED = 0.98

#: Largest accepted relative natural residual of a ``solve`` result.
KKT_TOL = 1e-8

#: Relative tolerance for rate constants recomputed from printed ingredients.
CONSTANTS_RTOL = 1e-12


def parse_kv(text):
    """``key = value`` lines into a dict of strings (later keys win)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_csv(path):
    """Sweep CSV into (metadata dict, list of row dicts), columns by name."""
    meta, rows, header = {}, [], None
    with open(path, "r", encoding="ascii") as handle:
        for line in handle.read().splitlines():
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(" = ")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def read_vector(path):
    with open(path, "r", encoding="ascii") as handle:
        return np.array([float(line) for line in handle
                         if line.strip() and not line.startswith("#")])


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_sweep(cmd, rc, out):
    """Exit 0, a determinism hash, and on a certified instance the paper's
    claim: slope near 1, clean fit, every record inside both bounds."""
    fails = []
    kv = parse_kv(out)
    if rc != 0:
        fails.append(f"exit code {rc}")
    if not kv.get("determinism_hash"):
        fails.append("no determinism_hash printed")
    csv = kv.get("csv")
    if not csv or not os.path.exists(csv):
        return fails + ["no CSV written"]
    meta, rows = read_csv(csv)
    if len(rows) != len(cmd.deltas) * cmd.trials:
        fails.append(f"{len(rows)} records, expected {len(cmd.deltas) * cmd.trials}")
    if cmd.expect.get("certified"):
        if meta.get("cert_valid") != "true" or meta.get("cert_injective") != "true":
            return fails + ["known certified instance is no longer certified"]
        slope = float(kv.get("fit_slope", "nan"))
        r2 = float(kv.get("fit_r_squared", "nan"))
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            fails.append(f"slope {slope!r} outside {SLOPE_RANGE}")
        if not r2 >= MIN_R_SQUARED:
            fails.append(f"r^2 {r2!r} below {MIN_R_SQUARED}")
        bad = [r.get("delta") for r in rows
               if r.get("pass_c") != "1" or r.get("pass_d") != "1"]
        if bad:
            fails.append(f"bound flags false at delta {bad}")
    return fails


def rate_constants(s, m_eta, q, a_norm, big_c):
    """``c = (1 + C s)^2 / (2C)``, ``d = 2 q (1 + C s) + (1 + q ||A||) / m * c``."""
    growth = 1.0 + big_c * s
    c = growth**2 / (2.0 * big_c)
    d = 2.0 * q * growth + (1.0 + q * a_norm) / m_eta * c
    return c, d


def check_certify(cmd, rc, out):
    """Exit code consistent with the verdict, known verdicts unchanged, and
    printed ``c``/``d`` equal to the formula applied to printed ingredients."""
    kv = parse_kv(out)
    if rc not in (0, 3) or "valid" not in kv:
        return [f"exit code {rc} without a certificate report"]
    fails = []
    verdict = {key: kv.get(key) == "true" for key in ("valid", "injective")}
    if rc != (0 if verdict["valid"] and verdict["injective"] else 3):
        fails.append(f"exit code {rc} contradicts verdict {verdict}")
    for key, want in cmd.expect.items():
        if verdict[key] != want:
            fails.append(f"known verdict {key}={want} changed")
    if "c" in kv:
        s = float(kv["norm_uv"] if cmd.model == "relaxed" else kv["norm_nu"])
        c, d = rate_constants(s, float(kv["m_eta"]), float(kv["a_omega_inv_norm"]),
                              float(kv["a_norm"]), float(kv["big_c"]))
        if not (_close(c, float(kv["c"]), CONSTANTS_RTOL)
                and _close(d, float(kv["d"]), CONSTANTS_RTOL)):
            fails.append(f"c/d {kv['c']}/{kv['d']} do not recompute ({c!r}/{d!r})")
    elif verdict["valid"] and verdict["injective"]:
        fails.append("valid certificate without rate constants")
    return fails


def dense_instance(basis, w, a):
    """Analysis matrix, forward and sensing matrices of one instance."""
    phi = np.column_stack([basis.decompose(e) for e in np.eye(basis.n)])
    return phi, materialize(w), materialize(a)


def solve_kkt(cmd, kv, outdir, dense, y):
    """Relative natural residual of a ``solve`` result from its files."""
    phi, w, a = dense
    alpha = float(kv["alpha"])
    kappa = float(kv["kappa"])
    x = read_vector(os.path.join(outdir, "x.txt"))
    if cmd.model == "relaxed":
        h = read_vector(os.path.join(outdir, "h.txt"))
        return kkt_relaxed(phi, w, a, y, alpha, kappa, x, h)
    return kkt_strict(phi, w, a, y, alpha, kappa, x)


def check_solve(cmd, rc, out, kkt):
    fails = []
    kv = parse_kv(out)
    if rc != 0:
        fails.append(f"exit code {rc}")
    if kv.get("converged") != "true":
        fails.append("not converged")
    if not (math.isfinite(kkt) and kkt <= KKT_TOL):
        fails.append(f"KKT residual {kkt!r} above {KKT_TOL}")
    return fails


class Checker:
    """Runs the output checks of every command execution and counts failures."""

    def __init__(self, fingerprint, history):
        self.fingerprint = fingerprint
        self.history = history
        self.attempted = 0
        self.failures = []
        self.hashes = {}
        self._dense = {}

    def _instance(self, cmd):
        if cmd.key not in self._dense:
            basis, _, w, a, _, noisy = next(build_instances([cmd]))
            self._dense[cmd.key] = (dense_instance(basis, w, a), noisy[0])
        return self._dense[cmd.key]

    def check_pass(self, record, label):
        kkts = []
        for res in record["commands"]:
            cmd, rc, out = res["cmd"], res["rc"], res["stdout"]
            self.attempted += 1
            if rc is None:
                fails = ["raised: " + res["stderr"].strip().splitlines()[-1]]
            elif cmd.kind == "sweep":
                fails = check_sweep(cmd, rc, out)
                digest = parse_kv(out).get("determinism_hash")
                if digest:
                    self.hashes.setdefault(cmd.key, set()).add(digest)
                    if len(self.hashes[cmd.key]) > 1:
                        fails.append("determinism_hash differs between passes")
            elif cmd.kind == "certify":
                fails = check_certify(cmd, rc, out)
            else:
                dense, y = self._instance(cmd)
                kv = parse_kv(out)
                try:
                    kkt = solve_kkt(cmd, kv, res["outdir"], dense, y)
                except (OSError, KeyError, ValueError) as exc:
                    kkt = float("nan")
                    res["stderr"] += f"\nKKT check could not run: {exc!r}"
                kkts.append(kkt)
                fails = check_solve(cmd, rc, out, kkt)
            if fails:
                self.failures.append({"pass": label, "command": cmd.key,
                                      "failures": fails,
                                      "stderr": res["stderr"][-2000:]})
        return kkts

    def check_history(self):
        """Compare this run's sweep hashes with earlier runs of the same code."""
        path = self.history
        try:
            store = json.loads(path.read_text())
        except (OSError, ValueError):
            store = {}
        known = store.setdefault(self.fingerprint, {})
        for key, digests in sorted(self.hashes.items()):
            if len(digests) != 1:
                continue  # already failed within this run
            digest = next(iter(digests))
            if known.setdefault(key, digest) != digest:
                self.attempted += 1
                self.failures.append({"pass": "history", "command": key,
                                      "failures": ["determinism_hash differs from an "
                                                   "earlier run of the same code"]})
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
