#!/usr/bin/env python3
"""Alternating pairs of timed runs of two revisions, written to ``BENCH_<slug>.json``.

Usage (from anywhere inside the repository):

    python3 tools/pairs.py BASE CHANGE --workload NAME [--pairs N] [--seconds S]
    python3 tools/pairs.py BASE CHANGE --cli "sweep --model strict ..." --slug NAME
        [--pairs N] [--repeats R]

``BASE`` and ``CHANGE`` are any git revisions.  Each is checked out as a
detached ``git worktree`` under one fresh temporary directory, at
``<tmp>/a`` and ``<tmp>/b``, so both paths have the same length (timings move
with the checkout path).  The worktrees are removed when the script exits.

Pair ``k`` runs both trees, the base first when ``k`` is even and the change
first when it is odd, in fresh interpreters with one BLAS thread:

* ``--workload NAME`` runs the tree's own ``perfbench/run.py --workload NAME
  --seed SEED --seconds S --trace 0``, with ``SEED = --seed0 + k`` on both
  sides, and reads every end-to-end metric of its last output line;
* ``--cli ARGV`` imports the tree's ``l1coreg.cli`` and runs ``main(ARGV)``
  in-process, once untimed and then ``--repeats`` times timed (the heap is
  collected between runs, untimed), and reads the median wall and CPU
  seconds of one command.  The argv fixes the instance, so no seed is used.

The JSON file holds both commits, N, the seeds, each side's numpy, BLAS and
thread record, and per metric both sides' medians and quartiles over the
pairs, every sample, and the number of pairs the change won.  The CLI mode
also states whether both sides printed the same output and exit code,
wall-time lines and output paths left out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One BLAS thread on both sides, as ``perfbench/run.py`` sets it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Metrics of the CLI mode, all lower-is-better.
CLI_METRICS = {"wall_s": "s", "cpu_s": "s"}

#: Printed lines that name run times or output paths, left out of the
#: output digest.
_VOLATILE = ("walltime", "csv = ")


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _environment():
    """numpy, BLAS and thread record of this interpreter."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas, **{k: os.environ.get(k) for k in THREAD_ENV}}


def _time_cli(tree, argv, repeats):
    """Child side of ``--cli``: time ``main(argv)`` from ``tree``'s sources."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from l1coreg import cli

    wall, cpu, digests = [], [], set()
    with tempfile.TemporaryDirectory() as workdir:
        out = {"sweep": ["--out", os.path.join(workdir, "sweep.csv")],
               "solve": ["--out", os.path.join(workdir, "solve")]}.get(argv[0], [])
        for k in range(repeats + 1):
            gc.collect()
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                t0, c0 = time.perf_counter(), time.process_time()
                rc = cli.main(argv + out)
                t1, c1 = time.perf_counter(), time.process_time()
            kept = [f"exit {rc}"] + [line for line in text.getvalue().splitlines()
                                     if not line.startswith(_VOLATILE)]
            digests.add(hashlib.sha256("\n".join(kept).encode()).hexdigest())
            if k:  # the first run is the untimed warm-up
                wall.append(t1 - t0)
                cpu.append(c1 - c0)
    print(json.dumps({"metrics": {"wall_s": statistics.median(wall),
                                  "cpu_s": statistics.median(cpu)},
                      "output": sorted(digests), "environment": _environment()}))


def _run(cmd, cwd):
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(cmd)} in {cwd} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def _measure(args, tree, seed):
    """``(metrics, environment, output)`` of one run in ``tree``."""
    if args.cli is not None:
        lines = _run([sys.executable, str(Path(__file__).resolve()), "--child",
                      str(tree), "--repeats", str(args.repeats), "--cli", args.cli],
                     tree)
        got = json.loads(lines[-1])
        return got["metrics"], got["environment"], got["output"]
    lines = _run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                  "--seed", str(seed), "--seconds", str(args.seconds),
                  "--trace", "0"], tree)
    got = json.loads(lines[-1])
    if not got["correct"]:
        raise RuntimeError(f"{args.workload} seed {seed} failed a check in {tree}")
    env = next(json.loads(line.partition("# environment ")[2]) for line in lines
               if line.startswith("# environment "))
    env = {k: env.get(k) for k in ("python", "numpy", "blas", "blas_threads")}
    return {k: v["value"] for k, v in got["metrics"].items()}, env, None


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _directions(args):
    """``{metric: (unit, better)}`` of the measured metrics."""
    if args.cli is not None:
        return {k: (unit, "lower") for k, unit in CLI_METRICS.items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}


def compare(args, trees):
    """Run the pairs in ``trees`` (base, change) and return the BENCH record."""
    samples = {"base": [], "change": []}
    envs, outputs = {}, {}
    seeds = [args.seed0 + k for k in range(args.pairs)] if args.workload else None
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            metrics, env, output = _measure(args, trees[side],
                                            seeds[k] if seeds else None)
            samples[side].append(metrics)
            envs.setdefault(side, env)
            outputs.setdefault(side, set()).update(output or ())
        print(f"pair {k + 1}/{args.pairs}: " + ", ".join(
            f"{side} {samples[side][-1]['wall_s']:.4f} s" for side in order),
            file=sys.stderr)
    metrics = {}
    for name, (unit, better) in _directions(args).items():
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        won = sum((c < b) if better == "lower" else (c > b)
                  for b, c in zip(base, change))
        metrics[name] = {"unit": unit, "better": better,
                         "base": _summary(base), "change": _summary(change),
                         "change_wins": won, "samples": {"base": base,
                                                         "change": change}}
    record = {
        "what": ({"cli": shlex.split(args.cli), "repeats": args.repeats}
                 if args.cli is not None else
                 {"workload": args.workload, "seconds": args.seconds}),
        "base": {"commit": args.base_commit, "environment": envs["base"]},
        "change": {"commit": args.change_commit, "environment": envs["change"]},
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "alternating: the base runs first on even pairs (from 0)",
        "host": {"nproc": os.cpu_count(),
                 "usable_cpus": len(os.sched_getaffinity(0))},
        "metrics": metrics,
    }
    if args.cli is not None:
        record["same_output"] = outputs["base"] == outputs["change"]
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", nargs="?", help="git revision of the base side")
    p.add_argument("change", nargs="?", help="git revision of the changed side")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="perfbench workload name")
    what.add_argument("--cli", help="CLI argv, one string, run in-process")
    p.add_argument("--slug", help="names BENCH_<slug>.json (default: workload)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="--seconds of each perfbench run")
    p.add_argument("--seed0", type=int, default=0,
                   help="perfbench seed of pair 0; pair k uses seed0 + k")
    p.add_argument("--repeats", type=int, default=12,
                   help="timed runs of the CLI argv per process")
    p.add_argument("--out", help="output path (default: BENCH_<slug>.json at "
                                 "the repository root)")
    p.add_argument("--workdir", default=tempfile.gettempdir(),
                   help="where the temporary worktree directory is made")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None:
        if args.base is None or args.change is None:
            p.error("BASE and CHANGE are required")
        if args.pairs < 2 or args.repeats < 1:
            p.error("--pairs must be at least 2 (quartiles) and --repeats 1")
        args.slug = args.slug or args.workload
        if not args.slug:
            p.error("--cli needs --slug")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child is not None:
        _time_cli(args.child, shlex.split(args.cli), args.repeats)
        return 0
    args.base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    args.change_commit = _git("rev-parse", "--verify", f"{args.change}^{{commit}}")
    tmp = Path(tempfile.mkdtemp(prefix="pairs-", dir=args.workdir))
    trees = {"base": tmp / "a", "change": tmp / "b"}
    try:
        for side, commit in (("base", args.base_commit),
                             ("change", args.change_commit)):
            _git("worktree", "add", "--detach", str(trees[side]), commit)
        record = compare(args, trees)
    finally:
        for tree in trees.values():
            if tree.exists():
                _git("worktree", "remove", "--force", str(tree))
        _git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in record["metrics"].items():
        print(f"{name}: {metric['base']['median']!r} -> "
              f"{metric['change']['median']!r} {metric['unit']} "
              f"({metric['change_wins']}/{args.pairs} pairs won by the change)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
