"""Exact invariants of every solver under sign and power-of-two scale.

Sparse PCA's phi is even (g is an l1 term plus a ball, h or f a quadratic
form) and every kernel is odd in exact rounding, so a solve from -s0 must
give the negated iterates, bit for bit. Multiplying the objective by
c = 2^k (Sigma -> c*Sigma and kappa -> c*kappa, so lambda_max -> c*lambda_max
and every default stepsize gamma -> gamma/c) multiplies the operands of
every floating-point operation of a solve by a power of two: prox of
(gamma/c)*(c*f) is prox of gamma*f (Parikh and Boyd, "Proximal Algorithms",
2014, section 2.2). Iteration counts, call counts and final_s bytes must
then be unchanged, and the env and phi traces scaled by c exactly.
Solves go through ``cli._solve_one``, as ``dcprox solve`` runs them.
"""

import dataclasses

import numpy as np
import pytest

import dcprox as dp
from dcprox import cli

N = 60
BUDGET = 300


def solve(solver, spca):
    """The command-line solve of ``solver`` on the split built on ``spca``."""
    kind = "spca3" if solver == "three-prox" else "spca"
    build = dp.make_spca3 if kind == "spca3" else dp.make_spca
    payload = build(spca.n, spca.kappa, spca.seed, spca=spca)
    return cli._solve_one(solver, kind, payload, 1e-6, BUDGET)[0]


@pytest.fixture(scope="module")
def base():
    return dp.make_spca(N, seed=0)[0]


def assert_same_run(report, other):
    assert (report.termination, report.iterations, report.counts()) == (
        other.termination, other.iterations, other.counts())


@pytest.mark.parametrize("solver", cli.SOLVERS)
def test_a_negated_start_negates_every_iterate(base, solver):
    report = solve(solver, base)
    negated = solve(solver, dataclasses.replace(base, s0=-base.s0))
    assert_same_run(report, negated)
    assert np.negative(report.final_s).tobytes() == negated.final_s.tobytes()
    assert negated.trace.env == report.trace.env
    assert negated.phi == report.phi


@pytest.mark.parametrize("k", [-3, 5])
@pytest.mark.parametrize("solver", cli.SOLVERS)
def test_a_power_of_two_scale_leaves_iterates_unchanged(base, solver, k):
    c = 2.0 ** k
    report = solve(solver, base)
    scaled = solve(solver, dataclasses.replace(
        base, sigma=c * base.sigma, kappa=c * base.kappa, lam_max=c * base.lam_max))
    assert_same_run(report, scaled)
    assert report.final_s.tobytes() == scaled.final_s.tobytes()
    assert scaled.gamma == report.gamma / c
    assert scaled.trace.env == [c * e for e in report.trace.env]
    assert scaled.phi == c * report.phi
