"""The benchmark's workloads: fixed lists of documented CLI commands.

Each command names one problem instance (size, instance seed, forward
operator); the instances are fixed because a solve's iteration count, and so
its cost, differs several-fold between instance seeds.  The benchmark seed
sets the order in which a workload's commands run; seed 0 keeps the order
listed here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

import l1coreg

#: noise levels of a sweep with the CLI defaults (--delta-max 1e-2,
#: --delta-min 1e-5, --delta-count 7)
SWEEP_DELTAS = tuple(float(d) for d in np.logspace(-2, -5, 7))


@dataclass(frozen=True)
class Command:
    """One CLI call and what its output must show.

    ``expect`` holds known certificate verdicts (``valid``/``injective``) for
    ``certify``; for ``sweep`` it is ``{"certified": True}`` on instances whose
    certificate is known to exist, which turns on the paper-claim checks.
    """

    kind: str
    model: str
    n: int
    m: int
    sparsity: int
    seed: int
    forward: str = "integration"
    extra: tuple = ()
    deltas: tuple = ()
    trials: int = 1
    expect: dict = field(default_factory=dict)

    def argv(self, out=None):
        args = [self.kind, "--model", self.model, "--n", str(self.n),
                "--m", str(self.m), "--sparsity", str(self.sparsity),
                "--seed", str(self.seed), "--forward", self.forward, *self.extra]
        if out is not None:
            args += ["--out", out]
        return args

    @property
    def key(self):
        return " ".join(self.argv())


def _sweep_relaxed_n64():
    return [Command(
        "sweep", "relaxed", 64, 48, 4, 198, forward="identity",
        extra=("--gamma", "10", "--max-iters", "30000", "--jobs", "1"),
        deltas=SWEEP_DELTAS, trials=3, expect={"certified": True},
    )]


def _sweep_strict_n256():
    return [Command(
        "sweep", "strict", 256, 128, 8, 178, forward="identity",
        extra=("--rho", "1", "--max-iters", "40000", "--trials", "1",
               "--jobs", "1"),
        deltas=SWEEP_DELTAS, trials=1, expect={"certified": True},
    )]


def _certify_n256():
    cmds = []
    for model in ("relaxed", "strict"):
        for seed in range(170, 186):
            expect = {"valid": True, "injective": True} if seed == 178 else {}
            cmds.append(Command("certify", model, 256, 128, 8, seed,
                                forward="identity", expect=expect))
        for seed in (7, 8):
            expect = {"valid": False} if (model, seed) == ("relaxed", 7) else {}
            cmds.append(Command("certify", model, 256, 128, 8, seed,
                                expect=expect))
    return cmds


def _solve_integration_large():
    return [
        Command("solve", "relaxed", 512, 256, 16, 7,
                extra=("--delta", "1e-2"), deltas=(1e-2,)),
        Command("solve", "strict", 1024, 512, 16, 7,
                extra=("--delta", "1e-2"), deltas=(1e-2,)),
    ]


WORKLOADS = {
    "sweep_relaxed_n64": _sweep_relaxed_n64,
    "sweep_strict_n256": _sweep_strict_n256,
    "certify_n256": _certify_n256,
    "solve_integration_large": _solve_integration_large,
}


def commands(workload, seed):
    """The workload's commands in the order the benchmark seed gives."""
    cmds = WORKLOADS[workload]()
    if seed:
        random.Random(seed).shuffle(cmds)
    return cmds


def build_instances(cmds):
    """Build each instance of ``cmds`` through the public constructors.

    Mirrors what a command does before its solve or search: basis, weights,
    operators, phantom and one noisy data vector per (delta, trial), with the
    noise seeds of :meth:`SweepConfig.noise_seed` (the ``solve`` command uses
    the same rule at index 0).
    """
    for cmd in cmds:
        basis = l1coreg.WaveletBasis(cmd.n)
        l1 = l1coreg.WeightedL1(basis, np.full(cmd.n, 1.0))
        cfg = l1coreg.SweepConfig(n=cmd.n, m=cmd.m, sparsity=cmd.sparsity,
                                  deltas=cmd.deltas or (1.0,), model=cmd.model,
                                  trials=cmd.trials, seed=cmd.seed)
        w, a = l1coreg.experiments.default_operators(cfg, forward=cmd.forward)
        phantom = l1coreg.make_phantom(cmd.n, cmd.sparsity, cfg.phantom_seed(),
                                       basis, w)
        y_star = a.apply(phantom.h_star)
        noisy = [l1coreg.add_noise(y_star, delta, cfg.noise_seed(i, t))
                 for i, delta in enumerate(cmd.deltas) for t in range(cmd.trials)]
        yield basis, l1, w, a, phantom, noisy
