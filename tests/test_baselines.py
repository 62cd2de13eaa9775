import dataclasses

import numpy as np
import pytest

import dcprox as dp
from dcprox import baselines, reports
from dcprox.cli import GAMMA_POLICY
from dcprox.problems import find_synthetic
from dcprox.prox import CapabilityError
from oracles import CATALOGUE_ANSWERS


def instance_a():
    return next(c for c in dp.synthetic_catalogue() if c.name == "quad-linear-1d").dc


def pure_prox_instance():
    # gradient-free h: forward-backward degenerates to proximal iteration
    zero_oracle = dp.SmoothFunction(value=lambda x: 0.0,
                                    grad=lambda x: np.zeros_like(x),
                                    lipschitz=0.0,
                                    backward=lambda s, gamma: np.asarray(s, dtype=float),
                                    curvature_max=0.0)
    return dp.DcInstance(g=dp.L1Norm(1.0), h=dp.Zero(), dim=2,
                         smooth_h=zero_oracle)


# ---------------------------------------------------------------------------
# forward-backward splitting

def test_fbs_pure_prox_converges_to_zero():
    rep = dp.fbs_run(pure_prox_instance(),
                     dp.TwoProxConfig(gamma=0.7, tol=1e-10, max_iter=100), [3.0, -2.0])
    assert rep.converged
    np.testing.assert_allclose(rep.final_v, 0.0, atol=1e-9)


def test_fbs_closed_form_fixed_point():
    rep = dp.fbs_run(instance_a(), dp.TwoProxConfig(gamma=0.9, tol=1e-10, max_iter=500), [0.0])
    assert rep.converged
    assert rep.final_v[0] == pytest.approx(1.0, abs=1e-8)


def test_fbs_stepsize_gate():
    inst = next(c for c in dp.synthetic_catalogue() if c.name == "abs-quad-1d").dc
    assert inst.smooth_h.lipschitz == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dp.fbs_run(inst, dp.TwoProxConfig(gamma=1.0, tol=1e-6, max_iter=10), [0.1])
    rep = dp.fbs_run(inst, dp.TwoProxConfig(gamma=0.9, tol=1e-8, max_iter=200), [0.25])
    assert rep.converged


def test_fbs_needs_smooth_oracle():
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.Zero(), dim=2)
    with pytest.raises(CapabilityError):
        dp.fbs_run(inst, dp.TwoProxConfig(gamma=0.5, tol=1e-6, max_iter=10), np.zeros(2))


# ---------------------------------------------------------------------------
# classical DC iteration

def test_dca_quadratic_alternation():
    rep = dp.dca_run(instance_a(), dp.TwoProxConfig(gamma=0.9, tol=1e-10, max_iter=50), [0.0])
    assert rep.converged
    assert rep.final_v[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.iterations <= 3  # constant gradient: one move suffices


def test_dca_stationary_start_is_fixed():
    rep = dp.dca_run(instance_a(), dp.TwoProxConfig(gamma=0.9, tol=1e-10, max_iter=50), [1.0])
    assert rep.converged and rep.iterations == 1


def test_dca_missing_subsolver():
    inst = next(c for c in dp.synthetic_catalogue() if c.name == "abs-quad-1d").dc
    with pytest.raises(CapabilityError):
        dp.dca_run(inst, dp.TwoProxConfig(gamma=0.5, tol=1e-6, max_iter=10), [0.1])


def test_dca_spca_subproblem_is_optimal(rng):
    # argmin over the ball of kappa*||x||_1 - <v, x>: shrink then normalize
    spca, inst = dp.make_spca(6, seed=9)
    for _ in range(40):
        v = rng.standard_normal(6) * spca.kappa * 2
        x = inst.dca_step(v)
        obj = lambda w: spca.kappa * np.sum(np.abs(w)) - float(v @ w)
        assert np.linalg.norm(x) <= 1.0 + 1e-12
        best = obj(x)
        for _ in range(100):
            z = dp.prox_l1_ball(x + 0.5 * rng.standard_normal(6), 0.0)
            assert obj(z) >= best - 1e-9


def test_dca_spca_zero_when_kappa_dominates():
    spca, inst = dp.make_spca(6, seed=9)
    v = np.full(6, 0.5 * spca.kappa)
    np.testing.assert_array_equal(inst.dca_step(v), np.zeros(6))


# ---------------------------------------------------------------------------
# Douglas-Rachford

def test_drs_zero_smooth_part_is_prox_iteration():
    rep = dp.drs_run(pure_prox_instance(),
                     dp.TwoProxConfig(gamma=0.7, tol=1e-10, max_iter=200), [3.0, -2.0])
    assert rep.converged
    np.testing.assert_allclose(rep.final_v, 0.0, atol=1e-9)


def test_drs_converges_on_1d():
    rep = dp.drs_run(instance_a(), dp.TwoProxConfig(gamma=0.4, tol=1e-10, max_iter=500), [0.0])
    assert rep.converged
    assert rep.final_v[0] == pytest.approx(1.0, abs=1e-8)
    # governing state converges to u* - gamma*grad... = 0.6 here
    assert rep.final_s[0] == pytest.approx(0.6, abs=1e-8)


def test_drs_curvature_gate():
    spca, inst = dp.make_spca(8, seed=2)
    with pytest.raises(ValueError):
        dp.drs_run(inst, dp.TwoProxConfig(gamma=1.1 / spca.lam_max, tol=1e-6, max_iter=10),
                   spca.s0)
    rep = dp.drs_run(inst, dp.TwoProxConfig(gamma=0.45 / spca.lam_max, tol=1e-6,
                                            max_iter=20000), spca.s0)
    assert rep.converged


# ---------------------------------------------------------------------------
# shared criterion and oracles

def test_all_solvers_agree_on_unique_stationary_point():
    inst = instance_a()
    answers = [
        dp.run(inst, dp.TwoProxConfig(gamma=1.0, tol=1e-8, max_iter=500), [0.0]).final_v,
        dp.run_lbfgs(inst, dp.TwoProxConfig(gamma=1.0, tol=1e-8, max_iter=500), [0.0]).final_v,
        dp.fbs_run(inst, dp.TwoProxConfig(gamma=0.9, tol=1e-8, max_iter=500), [0.0]).final_v,
        dp.dca_run(inst, dp.TwoProxConfig(gamma=0.9, tol=1e-8, max_iter=500), [0.0]).final_v,
        dp.drs_run(inst, dp.TwoProxConfig(gamma=0.4, tol=1e-8, max_iter=500), [0.0]).final_v,
    ]
    for ans in answers:
        assert ans[0] == pytest.approx(1.0, abs=1e-6)


def test_smooth_oracle_lipschitz_validated(rng):
    # ||grad h(a) - grad h(b)|| <= L_h ||a - b|| on random pairs
    for c in dp.synthetic_catalogue():
        if c.dc is None or c.dc.smooth_h is None:
            continue
        smooth = c.dc.smooth_h
        assert smooth.lipschitz >= 0
        for _ in range(40):
            a = rng.standard_normal(c.dc.dim) * 3
            b = rng.standard_normal(c.dc.dim) * 3
            lhs = np.linalg.norm(smooth.grad(a) - smooth.grad(b))
            assert lhs <= smooth.lipschitz * np.linalg.norm(a - b) + 1e-12


def test_smooth_oracle_consistent_with_prox_atom(rng):
    # the prox atom for h and its gradient oracle describe one function
    spca, inst = dp.make_spca(12, seed=6)
    for _ in range(10):
        x = rng.standard_normal(12)
        assert inst.smooth_h.value(x) == pytest.approx(inst.h.value(x), rel=1e-12)
        np.testing.assert_allclose(inst.smooth_h.grad(x), spca.sigma @ x,
                                   atol=1e-10)


def test_termination_counts_include_checks():
    # the criterion's prox_h image is a point the iteration holds (the
    # resolvent identity), so only drs's backward solve counts as prox_h.
    # fbs: per iteration one grad_h and one prox_g, for the step and the
    # criterion alike
    rep = dp.fbs_run(instance_a(), dp.TwoProxConfig(gamma=0.9, tol=1e-10, max_iter=500), [0.0])
    prox_h, prox_g, grad_h = rep.counts()
    assert prox_h == 0
    assert prox_g == rep.iterations
    assert grad_h == rep.iterations
    # drs: one h-prox (the backward solve), one g-prox
    rep = dp.drs_run(instance_a(), dp.TwoProxConfig(gamma=0.4, tol=1e-10, max_iter=500), [0.0])
    prox_h, prox_g, grad_h = rep.counts()
    assert prox_h == rep.iterations
    assert prox_g == rep.iterations
    # dca: the criterion adds one prox_g to the subproblem solve
    rep = dp.dca_run(instance_a(), dp.TwoProxConfig(gamma=0.9, tol=1e-10, max_iter=500), [0.0])
    prox_h, prox_g, grad_h = rep.counts()
    assert prox_h == 0
    assert prox_g == 2 * rep.iterations


# ---------------------------------------------------------------------------
# the resolvent identity behind the shared criterion, and the rejections
# that the criterion's prox_h call used to make

BASELINES = {"fbs": dp.fbs_run, "dca": dp.dca_run, "drs": dp.drs_run}


def identity_cases():
    cases = [pytest.param(c.dc, c.gamma, c.s0, solver, id=f"{c.name}-{solver}")
             for c in dp.synthetic_catalogue() for solver in CATALOGUE_ANSWERS[c.name].solvers
             if solver in BASELINES]
    spca, inst = dp.make_spca(30, seed=0)
    return cases + [pytest.param(inst, GAMMA_POLICY[solver] / spca.lam_max, spca.s0,
                                 solver, id=f"spca-30-{solver}") for solver in BASELINES]


@pytest.mark.parametrize("inst,gamma,s0,solver", identity_cases())
def test_criterion_u_is_prox_h_of_the_criterion_point(monkeypatch, inst, gamma, s0,
                                                      solver):
    # the u a baseline hands drive is prox_h of its criterion point: the
    # forward point u + gamma*grad h(u) of fbs and dca, whose u is the
    # iterate, and drs's reflected point 2u - s, whose u is the backward point
    seen = []

    def recording_drive(solver, inst, s0, first, advance, *args, **kwargs):
        def first_seen(x):
            seen.append(first(x))
            return seen[-1]

        def advance_seen(it):
            nxt, claim = advance(it)
            seen.append(nxt)
            return nxt, claim
        return reports.drive(solver, inst, s0, first_seen, advance_seen,
                             *args, **kwargs)
    monkeypatch.setattr(baselines, "drive", recording_drive)
    BASELINES[solver](inst, dp.TwoProxConfig(gamma=gamma, tol=0.0, max_iter=50), s0)
    assert 0 < len(seen) <= 50
    for it in seen:
        if solver == "drs":
            point = 2.0 * it.u - it.s
        else:
            assert np.array_equal(it.u, it.s)
            point = it.u + gamma * inst.smooth_h.grad(it.u)
        # the residual's prox_g side is evaluated at this same point
        assert np.array_equal(it.v, inst.g.prox(point, gamma))
        gap = np.linalg.norm(inst.h.prox(point, gamma) - it.u)
        assert gap <= 1e-12 * (1.0 + np.linalg.norm(it.u))


@pytest.mark.parametrize("solver", ["fbs", "dca"])
def test_nan_gradient_mid_run_raises(solver):
    # the criterion point turns NaN with the gradient; the solver raises
    # there, as the criterion's prox_h did, rather than run to its budget
    spca, inst = dp.make_spca(12, seed=1)
    grad, calls = inst.smooth_h.grad, []

    def turning_nan(x):
        calls.append(x)
        return grad(x) if len(calls) < 5 else np.full_like(x, np.nan)
    inst = dataclasses.replace(
        inst, smooth_h=dataclasses.replace(inst.smooth_h, grad=turning_nan))
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        BASELINES[solver](inst, dp.TwoProxConfig(gamma=0.9 / spca.lam_max, tol=0.0, max_iter=50),
                          spca.s0)
    assert len(calls) == 5


def test_dca_refuses_gamma_mu_of_one():
    # abs-hypo-1d has mu = 0.5, so at gamma = 2 its prox_h is undefined
    synth = find_synthetic("abs-hypo-1d")
    inst = dataclasses.replace(synth.dc, dca_step=lambda v: np.zeros_like(v))
    with pytest.raises(ValueError, match=r"gamma\*mu must stay below 1, got 1.0"):
        dp.dca_run(inst, dp.TwoProxConfig(gamma=2.0, tol=1e-6, max_iter=10), synth.s0)


def test_fbs_checks_gamma_mu_before_its_lipschitz_gate():
    # abs-hypo-1d has mu = L_h = 0.5: at gamma = 2 both checks fail, and the
    # config's validation, which every solver shares, comes first
    synth = find_synthetic("abs-hypo-1d")
    with pytest.raises(ValueError, match=r"gamma\*mu must stay below 1, got 1.0"):
        dp.fbs_run(synth.dc, dp.TwoProxConfig(gamma=2.0), synth.s0)
