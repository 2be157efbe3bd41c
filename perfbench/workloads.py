"""Seeded corpora for the benchmark workloads.

Every problem is drawn from a named ``SeedSequence`` stream keyed by the run
seed, so one seed always gives the same problems.  The library only ever
sees the finished ``ProblemSpec``.

- ``square``: general, l2 and gramian at n = 2048, one problem each.  The
  paper's regime: leaf sweeps and the leaf self-check dominate, combine
  products take 13-25% and no condition is deferred.
- ``rect``: general at n = 512 with m = n/4, and with a one-row L, two
  problems each.  A quarter to a third of the conditions are deferred and
  the cleanup pass dominates.  The cleanup is quadratic, so n = 512 keeps a
  solve near 1.5 s and lets a run hold a dozen of them.
- ``nufft``: the sampled-spectrum gramian instance at n = 1024 with 1024
  samples, 32 instances.  Thin accuracy margins and the only workload where
  CG is slow enough to be a real competitor.  Solve time and accuracy vary
  between instances, so the corpus is large enough for the run medians to
  settle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from toepreg import ProblemSpec, ToeplitzSpec
from toepreg.experiments import complex_normal, random_problem
from toepreg.nufft import (
    NufftConfig,
    make_signal,
    sample_matrix,
    second_difference_regularizer,
    voronoi_weights,
    weighted_fourier_gramian,
)

NAMES = ("square", "rect", "nufft")
SIZES = {"square": 2048, "rect": 512, "nufft": 1024}
RECT_PER_SHAPE = 2
NUFFT_INSTANCES = 32

_CODE = {name: i for i, name in enumerate(NAMES)}


@dataclass(frozen=True)
class Case:
    """One corpus problem; ``shape`` names the cache-relevant shape."""

    shape: str
    problem: ProblemSpec

    @property
    def entries(self) -> int:
        """The paper's N: summed lengths of the T, L and G generators."""
        p = self.problem
        return sum(spec.gen.size for spec in (p.T, p.L, p.G) if spec is not None)


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _CODE[workload], index)))


def _square(seed: int, n: int):
    for i, variant in enumerate(("general", "l2", "gramian")):
        yield lambda i=i, variant=variant: Case(
            variant, random_problem(variant, n, _rng(seed, "square", i)))


def _rect_case(seed: int, i: int, n: int, m: int, p: int, shape: str) -> Case:
    rng = _rng(seed, "rect", i)
    t = ToeplitzSpec(m, n, complex_normal(rng, m + n - 1))
    reg = ToeplitzSpec(p, n, complex_normal(rng, p + n - 1))
    return Case(shape, ProblemSpec.general(t, reg, complex_normal(rng, m)))


def _rect(seed: int, n: int):
    for k in range(RECT_PER_SHAPE):
        yield lambda k=k: _rect_case(seed, 2 * k, n, n // 4, n, "general m=n/4")
        yield lambda k=k: _rect_case(seed, 2 * k + 1, n, n, 1, "general p=1")


def _nufft_case(seed: int, i: int, n: int) -> Case:
    """The problem ``toepreg.nufft.run_nufft`` solves, from its own constructors."""
    cfg = NufftConfig(n=n, samples=n)
    rng = _rng(seed, "nufft", i)
    freqs = rng.triangular(-0.5, 0.0, 0.5, size=cfg.samples)
    weights = voronoi_weights(freqs)
    x_true = make_signal(cfg.n, cfg.components, cfg.f_max, rng)
    a = sample_matrix(freqs, cfg.n)
    rhs = a.conj().T @ (weights * (a @ x_true))
    gram = weighted_fourier_gramian(freqs, weights, cfg.n)
    reg = second_difference_regularizer(cfg.n, cfg.reg_scale)
    return Case("gramian nufft", ProblemSpec.gramian(gram, reg, rhs))


def _nufft(seed: int, n: int, count: int = NUFFT_INSTANCES):
    for i in range(count):
        yield lambda i=i: _nufft_case(seed, i, n)


_MAKERS = {"square": _square, "rect": _rect, "nufft": _nufft}


def makers(workload: str, seed: int, n: int = None):
    """Zero-argument callables, one per corpus problem, in solve order."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    return list(_MAKERS[workload](seed, n or SIZES[workload]))
