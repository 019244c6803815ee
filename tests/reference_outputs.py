"""Reference outputs of the benchmark's CLI commands: replay, compare, rewrite.

The 40 commands of ``perfbench/workloads.py`` (read, never edited),
criterion 9's sweep and the README's two "Certified indirect data" sweeps
(integration ``W``, the only sweeps here that hold ``W``'s spectrum) are
replayed in-process, and each is summarized in three tiers:

* ``bytes``: SHA-256 of stdout and of each file written (``sweep.csv``,
  ``x.txt``, ``h.txt``), without the wall-time lines and the ``csv =``
  line that names the output path;
* ``meaning``: exit code, verdicts, every ``pass_c``/``pass_d`` flag, the
  fit's slope and r^2, and the rate constants ``c`` and ``d``, each number
  to 6 significant digits;
* ``cost``: iterations and, for ``solve``, rebuilds of the v-step map.

``tests/test_reference_outputs.py`` compares the first two tiers with
``tests/reference_outputs.json``; the cost tier is reported, not gated.
A change that means to move bits rewrites the file from the repository
root with

    PYTHONPATH=src python tests/reference_outputs.py

which prints every changed entry, all three tiers, before it writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

import numpy as np

from conftest import parse_csv
from l1coreg import cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_outputs.json")
WORKLOADS_PATH = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")

#: ``tests/test_acceptance.py::test_criterion_9_sweep_determinism``'s sweep.
CRITERION_9 = (
    "sweep", "--model", "relaxed", "--n", "32", "--m", "24",
    "--sparsity", "2", "--seed", "1", "--forward", "identity",
    "--deltas", "1e-2,1e-3,1e-4", "--trials", "2",
)

#: The README's "Certified indirect data" sweeps, at the CLI defaults.
README_CERTIFIED = tuple(
    ("sweep", "--model", model, "--kappa", "1e5", "--C", "1e-4")
    for model in ("strict", "relaxed")
)

#: Lines left out of every digest: run times and the output path.
_VOLATILE = ("walltime", "# walltime", "csv = ")


def versions():
    """The numpy and BLAS versions the bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def commands():
    """``{key: argv}`` of the workloads' commands, in listed order, criterion 9
    and the README's certified sweeps."""
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    out = {}
    for name in workloads.WORKLOADS:
        for cmd in workloads.commands(name, 0):
            out[cmd.key] = cmd.argv()
    for argv in (CRITERION_9, *README_CERTIFIED):
        out[" ".join(argv)] = list(argv)
    return out


def _digest(text):
    kept = [line for line in text.splitlines() if not line.startswith(_VOLATILE)]
    return hashlib.sha256("\n".join(kept).encode("ascii")).hexdigest()


def _sig(value):
    return f"{float(value):.6g}"


def _flags(values):
    return "".join("-" if v is None else str(int(v)) for v in values)


def run(argv, workdir):
    """One command's three tiers, its outputs written under ``workdir``."""
    kind = argv[0]
    out = {"sweep": os.path.join(workdir, "sweep.csv"),
           "solve": os.path.join(workdir, "solve")}.get(kind)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv) + (["--out", out] if out else []))
    text = stdout.getvalue()
    printed = cli.parse_config_text(text)
    digests = {"stdout": _digest(text)}
    meaning = {"exit": rc}
    cost = {}
    if kind == "certify":
        meaning.update({k: printed[k] for k in ("valid", "injective")})
        meaning.update({k: _sig(printed[k]) for k in ("c", "d") if k in printed})
    elif kind == "solve":
        for name in ("x.txt", "h.txt"):
            with open(os.path.join(out, name), encoding="ascii") as handle:
                digests[name] = _digest(handle.read())
        meaning["converged"] = printed["converged"]
        cost = {k: int(printed[k]) for k in ("iterations", "rebuilds")}
    else:
        with open(out, encoding="ascii") as handle:
            digests["sweep.csv"] = _digest(handle.read())
        records, meta, fit = parse_csv(out)
        meaning.update({k: meta[k] for k in
                        ("converged", "cert_valid", "cert_injective",
                         "converse_flag") if k in meta})
        meaning.update({k: _sig(meta[f"cert_{k}"]) for k in ("c", "d")
                        if f"cert_{k}" in meta})
        meaning["slope"] = _sig(fit.slope)
        meaning["r_squared"] = _sig(fit.r_squared)
        meaning["pass_c"] = _flags(r.pass_c for r in records)
        meaning["pass_d"] = _flags(r.pass_d for r in records)
        cost = {"iterations": sum(r.iterations for r in records)}
    return {"bytes": digests, "meaning": meaning, "cost": cost}


def replay(workdir, argvs=None):
    """``{key: tiers}`` of ``argvs`` (default :func:`commands`), run under ``workdir``."""
    argvs = commands() if argvs is None else argvs
    return {key: run(argv, workdir) for key, argv in argvs.items()}


def changes(want, got, tiers=("bytes", "meaning", "cost")):
    """One line per entry of ``tiers`` that differs between two replays."""
    lines = [f"{key}: missing" for key in want if key not in got]
    lines += [f"{key}: not in the reference" for key in got if key not in want]
    for key in want.keys() & got.keys():
        for tier in tiers:
            old, new = want[key][tier], got[key][tier]
            for field in sorted(old.keys() | new.keys()):
                if old.get(field) != new.get(field):
                    lines.append(f"{key}: {tier}.{field} "
                                 f"{old.get(field)} -> {new.get(field)}")
    return sorted(lines)


def main():
    with tempfile.TemporaryDirectory() as workdir:
        got = replay(workdir)
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="ascii") as handle:
            old = json.load(handle)
        if old["versions"] != versions():
            print(f"versions: {old['versions']} -> {versions()}")
        for line in changes(old["commands"], got):
            print(line)
    with open(REFERENCE_PATH, "w", encoding="ascii") as handle:
        json.dump({"versions": versions(), "commands": got}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
