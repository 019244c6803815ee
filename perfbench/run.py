#!/usr/bin/env python3
"""l1coreg benchmark: documented CLI workloads, timed end to end, with
per-layer times from a separate traced pass and correctness checks on every
command's output.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in ``perfbench/workloads.py``.  Every command runs
in-process through ``l1coreg.cli.main`` with one BLAS thread.  With
``--trace 0`` the run prints end-to-end metrics; with ``--trace 1`` it runs
untraced and traced passes in pairs and prints per-layer metrics.  The last
line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result record (environment,
samples, failures) and, for traced runs, the spans are written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: One BLAS thread, so that timings do not depend on how busy the other
#: core is; set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

IMPORT_REPS = 5
SETUP_REPS = 5

#: Tiny commands run once before timing, so that lazy set-up inside numpy,
#: scipy and the CLI (first LAPACK calls, argparse) is not charged to the
#: first timed command.
WARM_UP = (
    ["solve", "--model", "relaxed", "--n", "16", "--m", "8", "--sparsity", "2",
     "--delta", "1e-2"],
    ["solve", "--model", "strict", "--n", "16", "--m", "8", "--sparsity", "2",
     "--delta", "1e-2"],
    ["certify", "--model", "relaxed", "--n", "16", "--m", "8", "--sparsity", "2",
     "--forward", "identity"],
    ["certify", "--model", "strict", "--n", "16", "--m", "8", "--sparsity", "2",
     "--forward", "identity"],
    ["sweep", "--model", "relaxed", "--n", "16", "--m", "8", "--sparsity", "2",
     "--forward", "identity", "--trials", "1", "--delta-count", "2", "--jobs", "1"],
)


def declared_metrics():
    """(end-to-end, per-layer) metric units, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_fingerprint():
    digest = hashlib.sha256()
    for path in sorted((SRC / "l1coreg").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(numpy, scipy):
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def import_seconds():
    """Median over fresh interpreters of the time ``import l1coreg`` takes."""
    code = ("import time; t = time.perf_counter(); import l1coreg; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import l1coreg failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def construction_seconds(cmds):
    from workloads import build_instances

    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        for _instance in build_instances(cmds):
            pass
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), samples


def call_cli(argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sys.modules["l1coreg.cli"].main(argv)
        except Exception:  # a raising command is a failed command, not a crash
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(cmds, workdir, tracer=None):
    """Run every command once; the pass time is the sum of command times.

    Each command starts from a collected heap, as a fresh CLI process would,
    so that its memory peak does not depend on the commands before it.
    """
    workdir.mkdir(parents=True)
    results = []
    for i, cmd in enumerate(cmds):
        outdir = workdir / f"cmd{i}"
        out = {"sweep": str(outdir / "sweep.csv"), "solve": str(outdir)}.get(cmd.kind)
        if cmd.kind == "sweep":
            outdir.mkdir()
        if tracer is not None:
            tracer.command = i
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rc, stdout, stderr = call_cli(cmd.argv(out))
        results.append({"cmd": cmd, "rc": rc, "stdout": stdout, "stderr": stderr,
                        "seconds": time.perf_counter() - wall0,
                        "cpu": time.process_time() - cpu0, "outdir": str(outdir)})
    return {"wall": sum(r["seconds"] for r in results),
            "cpu": sum(r["cpu"] for r in results), "commands": results}


def median(values):
    return statistics.median(values) if values else 0.0


def hd_median(values):
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics.  Command times of a workload can fall into separate groups
    (certify: about 15 ms relaxed, 0.5 s strict); the sample median then sits
    between the two groups and moves with the slowest fast command."""
    from scipy.stats.mstats import hdquantiles

    if len(values) < 2:
        return median(values)
    return float(hdquantiles(values, prob=[0.5])[0])


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, from the tracer's counters."""
    from checks import dense_instance, kkt_relaxed, kkt_strict

    ls, lc = tracer.layer_self, tracer.layer_calls
    tt, tc = tracer.tag_total, tracer.tag_calls

    def per_call(layer):
        return 1e6 * ls.get(layer, 0.0) / lc[layer] if lc.get(layer) else 0.0

    solves = [(name, (args or tuple(kwargs.values()))[0], result)
              for name, args, kwargs, result in tracer.observed
              if name.startswith("solvers.")]
    searches = [(name, result) for name, _, _, result in tracer.observed
                if name.startswith("certificates.")]
    iters = [res.iterations for _, _, res in solves]
    dense = {}
    kkts = []
    for name, prob, res in solves:
        key = (id(prob.w), id(prob.a), prob.l1.basis.n)
        if key not in dense:
            dense[key] = dense_instance(prob.l1.basis, prob.w, prob.a)
        phi, w, a = dense[key]
        kappa = prob.l1.kappa
        if name.endswith("relaxed"):
            kkts.append(kkt_relaxed(phi, w, a, prob.y_delta, prob.alpha, kappa,
                                    res.x, res.h))
        else:
            kkts.append(kkt_strict(phi, w, a, prob.y_delta, prob.alpha, kappa, res.x))

    def valid_ratio(model):
        found = [res.valid for name, res in searches if name.endswith(model)]
        return sum(found) / len(found) if found else 0.0

    solve_s = tt.get("solvers.solve", 0.0)
    return {
        "basis.calls": lc.get("basis", 0),
        "basis.self_s": ls.get("basis", 0.0),
        "basis.us_per_call": per_call("basis"),
        "basis.init_s": tt.get("basis.init", 0.0),
        "operators.calls": lc.get("operators", 0),
        "operators.self_s": ls.get("operators", 0.0),
        "operators.us_per_call": per_call("operators"),
        "operators.materialize_s": tt.get("operators.materialize", 0.0),
        "operators.norm_s": tt.get("operators.norm", 0.0),
        "regularizers.calls": lc.get("regularizers", 0),
        "regularizers.self_s": ls.get("regularizers", 0.0),
        "solvers.solves": tc.get("solvers.solve", 0),
        "solvers.solve_s": solve_s,
        "solvers.self_s": ls.get("solvers", 0.0),
        "solvers.iters": sum(iters),
        "solvers.iters_p50": median(iters),
        "solvers.us_per_iter": 1e6 * solve_s / sum(iters) if sum(iters) else 0.0,
        "solvers.converged_ratio": (sum(res.converged for _, _, res in solves)
                                    / len(solves) if solves else 0.0),
        "solvers.kkt_rel_max": max(kkts, default=0.0),
        "solvers.linsolve_calls": tc.get("solvers.linsolve", 0),
        "solvers.linsolve_s": tt.get("solvers.linsolve", 0.0),
        "solvers.factor_calls": tc.get("solvers.factor", 0),
        "solvers.factor_s": tt.get("solvers.factor", 0.0),
        "certificates.searches": tc.get("certificates.search", 0),
        "certificates.search_s": tt.get("certificates.search", 0.0),
        "certificates.injectivity_s": tt.get("certificates.injectivity", 0.0),
        "certificates.constants_s": tt.get("certificates.constants", 0.0),
        "certificates.valid_ratio_relaxed": valid_ratio("relaxed"),
        "certificates.valid_ratio_strict": valid_ratio("strict"),
        "experiments.sweep_s": tt.get("experiments.sweep", 0.0),
        "experiments.self_s": ls.get("experiments", 0.0),
        "experiments.emit_s": tt.get("experiments.emit", 0.0),
        "cli.self_s": ls.get("cli", 0.0),
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.environ.update(THREAD_ENV)
    if not (SRC / "l1coreg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no l1coreg sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2

    end_to_end_units, layer_units = declared_metrics()
    import numpy
    import scipy

    from checks import Checker
    from tracer import Tracer

    cmds = workloads.commands(args.workload, args.seed)
    env = environment(numpy, scipy)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    checker = Checker(env["source_sha256"], OUT / "hashes.json")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "commands": [cmd.key for cmd in cmds]}
    try:
        if not args.trace:
            import_s, import_samples = import_seconds()
            construct_s, construct_samples = construction_seconds(cmds)
            record.update(import_samples_s=import_samples,
                          construct_samples_s=construct_samples)
        for i, argv in enumerate(WARM_UP):
            warm = workdir / f"warm{i}"
            warm.mkdir(parents=True)
            call_cli(argv if argv[0] == "certify" else argv + ["--out", str(warm / "out")])

        passes, traced = [], []
        tracer = Tracer() if args.trace else None
        begin = time.perf_counter()
        rounds = 1
        while len(passes) < rounds:
            passes.append(run_pass(cmds, workdir / f"pass{len(passes)}"))
            if tracer is not None:
                tracer.reset()
                with tracer:
                    traced_pass = run_pass(cmds, workdir / f"traced{len(traced)}",
                                           tracer)
                traced_pass["layers"] = layer_metrics(tracer)
                spans = OUT / args.workload / f"spans-seed{args.seed}-pass{len(traced)}.json"
                spans.parent.mkdir(parents=True, exist_ok=True)
                tracer.dump(spans, t0=begin)
                traced.append(traced_pass)
            if len(passes) == 1:
                # whole passes only: as many as fit the time the first one took
                rounds = max(1, round(args.seconds / (time.perf_counter() - begin)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        record["solve_kkt"] = [checker.check_pass(p, f"pass{k}")
                               for k, p in enumerate(passes)]
        for k, p in enumerate(traced):
            checker.check_pass(p, f"traced{k}")
        checker.check_history()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len({(f["pass"], f["command"]) for f in checker.failures})
    attempted = checker.attempted
    command_s = [c["seconds"] for p in passes for c in p["commands"]]
    if args.trace:
        units = layer_units
        values = {name: median([t["layers"][name] for t in traced])
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = median(
            [t["wall"] / p["wall"] for t, p in zip(traced, passes)])
    else:
        units = end_to_end_units
        per_command = [median([p["commands"][i]["seconds"] for p in passes])
                       for i in range(len(cmds))]
        values = {
            "wall_s": median([p["wall"] for p in passes]),
            "op_s_p50": hd_median(per_command),
            "setup_s": import_s + construct_s,
            "cpu_s": median([p["cpu"] for p in passes]),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - failed / attempted,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json "
                           f"{sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    record.update(
        passes=[{"wall_s": p["wall"], "cpu_s": p["cpu"],
                 "command_s": [c["seconds"] for c in p["commands"]],
                 "exit_codes": [c["rc"] for c in p["commands"]]} for p in passes],
        traced_passes=[{"wall_s": t["wall"], "layers": t["layers"]} for t in traced],
        samples={"passes": len(passes), "traced_passes": len(traced),
                 "command_runs": len(command_s)},
        failures=checker.failures, metrics=metrics,
    )
    result_path = OUT / args.workload / f"seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{len(traced)} traced, {len(cmds)} command(s) per pass, "
          f"op_s_p50 over {len(cmds)} per-command medians of {len(passes)} pass(es)")
    print("# environment " + json.dumps(env, sort_keys=True))
    for failure in checker.failures:
        print(f"# FAILED [{failure['pass']}] {failure['command']}: "
              f"{'; '.join(failure['failures'])}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(f"# record {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
