"""A deterministic guard on per-iteration overhead.

At desk sizes a solve is bound by Python and numpy call overhead, not by
arithmetic, so the number of Python calls into the package per iteration
is the regression signal that wall clock is too noisy to give. The count
is the difference between runs of 65 and 129 iterations (tol 0, so both
run to their budget): 64 iterations plus one 64-point trace chunk.
"""

import os
import sys

import pytest

import dcprox as dp
from dcprox.cli import GAMMA_POLICY

PACKAGE = os.path.dirname(dp.__file__) + os.sep

# calls per 64 iterations; lower them when a change saves calls
BUDGET = {"dce": 1477, "dce-lbfgs": 1771, "fbs": 1030, "dca": 1286, "drs": 1412,
          "three-prox": 2314}


def counted_calls(solve):
    """(Python calls into the package during solve(), its report)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        report = solve()
    finally:
        sys.setprofile(None)
    return calls, report


def solver(name):
    if name == "three-prox":
        spca, inst = dp.make_spca3(30, seed=0)
    else:
        # L-BFGS reaches rounding level by iteration 65 at n = 30, where every
        # linesearch runs out; at n = 300 its residual is 4e-4 to 4e-7 over 65-129
        spca, inst = dp.make_spca(300 if name == "dce-lbfgs" else 30, seed=0)
    gamma = GAMMA_POLICY[name] / spca.lam_max
    run = {"dce": dp.run, "dce-lbfgs": dp.run_lbfgs, "fbs": dp.fbs_run, "dca": dp.dca_run,
           "drs": dp.drs_run, "three-prox": dp.run3}[name]
    return lambda budget: run(
        inst, dp.TwoProxConfig(gamma=gamma, tol=0.0, max_iter=budget), spca.s0)


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_calls_per_iteration_within_budget(name):
    solve = solver(name)
    short, short_report = counted_calls(lambda: solve(65))
    long, long_report = counted_calls(lambda: solve(129))
    assert (short_report.iterations, long_report.iterations) == (65, 129)
    assert long - short <= BUDGET[name], (
        f"{name}: {(long - short) / 64:.2f} calls per iteration, budget "
        f"{BUDGET[name] / 64:.2f}")
