import numpy as np
import pytest

import dcprox as dp
from dcprox.prox import CapabilityError


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
    rep = dp.fbs_run(pure_prox_instance(), 0.7, 1e-10, 100, [3.0, -2.0])
    assert rep.converged
    np.testing.assert_allclose(rep.final_v, 0.0, atol=1e-9)


def test_fbs_closed_form_fixed_point():
    rep = dp.fbs_run(instance_a(), 0.9, 1e-10, 500, [0.0])
    assert rep.converged
    assert rep.final_v[0] == pytest.approx(1.0, abs=1e-8)


def test_fbs_stepsize_gate():
    inst = next(c for c in dp.synthetic_catalogue() if c.name == "abs-quad-1d").dc
    assert inst.smooth_h.lipschitz == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dp.fbs_run(inst, 1.0, 1e-6, 10, [0.1])
    rep = dp.fbs_run(inst, 0.9, 1e-8, 200, [0.25])
    assert rep.converged


def test_fbs_needs_smooth_oracle():
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.Zero(), dim=2)
    with pytest.raises(CapabilityError):
        dp.fbs_run(inst, 0.5, 1e-6, 10, np.zeros(2))


# ---------------------------------------------------------------------------
# classical DC iteration

def test_dca_quadratic_alternation():
    rep = dp.dca_run(instance_a(), 0.9, 1e-10, 50, [0.0])
    assert rep.converged
    assert rep.final_v[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.iterations <= 3  # constant gradient: one move suffices


def test_dca_stationary_start_is_fixed():
    rep = dp.dca_run(instance_a(), 0.9, 1e-10, 50, [1.0])
    assert rep.converged and rep.iterations == 1


def test_dca_missing_subsolver():
    inst = next(c for c in dp.synthetic_catalogue() if c.name == "abs-quad-1d").dc
    with pytest.raises(CapabilityError):
        dp.dca_run(inst, 0.5, 1e-6, 10, [0.1])


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
    rep = dp.drs_run(pure_prox_instance(), 0.7, 1e-10, 200, [3.0, -2.0])
    assert rep.converged
    np.testing.assert_allclose(rep.final_v, 0.0, atol=1e-9)


def test_drs_converges_on_1d():
    rep = dp.drs_run(instance_a(), 0.4, 1e-10, 500, [0.0])
    assert rep.converged
    assert rep.final_v[0] == pytest.approx(1.0, abs=1e-8)
    # governing state converges to u* - gamma*grad... = 0.6 here
    assert rep.final_s[0] == pytest.approx(0.6, abs=1e-8)


def test_drs_curvature_gate():
    spca, inst = dp.make_spca(8, seed=2)
    with pytest.raises(ValueError):
        dp.drs_run(inst, 1.1 / spca.lam_max, 1e-6, 10, spca.s0)
    rep = dp.drs_run(inst, 0.45 / spca.lam_max, 1e-6, 20000, spca.s0)
    assert rep.converged


# ---------------------------------------------------------------------------
# shared criterion and oracles

def test_all_solvers_agree_on_unique_stationary_point():
    inst = instance_a()
    answers = [
        dp.run(inst, dp.TwoProxConfig(gamma=1.0, tol=1e-8, max_iter=500), [0.0]).final_v,
        dp.run_lbfgs(inst, dp.TwoProxConfig(gamma=1.0, tol=1e-8, max_iter=500), [0.0]).final_v,
        dp.fbs_run(inst, 0.9, 1e-8, 500, [0.0]).final_v,
        dp.dca_run(inst, 0.9, 1e-8, 500, [0.0]).final_v,
        dp.drs_run(inst, 0.4, 1e-8, 500, [0.0]).final_v,
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
    # fbs: per iteration one grad_h, one prox_g for the step, one prox_h
    # for the shared criterion
    rep = dp.fbs_run(instance_a(), 0.9, 1e-10, 500, [0.0])
    prox_h, prox_g, grad_h = rep.counts()
    assert prox_h == rep.iterations
    assert prox_g == rep.iterations
    assert grad_h == rep.iterations
    # drs: two h-proxes (backward + criterion), one g-prox
    rep = dp.drs_run(instance_a(), 0.4, 1e-10, 500, [0.0])
    prox_h, prox_g, grad_h = rep.counts()
    assert prox_h == 2 * rep.iterations
    assert prox_g == rep.iterations
    # dca: criterion adds one prox_h and one prox_g on top of the subproblem
    rep = dp.dca_run(instance_a(), 0.9, 1e-10, 500, [0.0])
    prox_h, prox_g, grad_h = rep.counts()
    assert prox_h == rep.iterations
    assert prox_g == 2 * rep.iterations
