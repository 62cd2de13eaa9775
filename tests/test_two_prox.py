from dataclasses import replace

import numpy as np
import pytest

import dcprox as dp
from dcprox.checks import common_subgradient_gap
from dcprox.reports import Termination
from oracles import recording


def instance_a():
    return dp.DcInstance(g=dp.ScaledSquare(1.0), h=dp.Linear([1.0]), dim=1)


def separable_2d():
    return next(c for c in dp.synthetic_catalogue() if c.name == "separable-2d")


# ---------------------------------------------------------------------------
# single step

def first_step(inst, cfg, s):
    """Iterates of ``run`` from s with a budget of two, and u, v at s.

    The iterates are [s, s_plus], or [s] alone when s is already stationary.
    """
    at_s = dp.run(inst, replace(cfg, tol=0.0, max_iter=1), s)
    recorded, iterates = recording(inst)
    dp.run(recorded, replace(cfg, tol=0.0, max_iter=2), s)
    return iterates(), at_s.final_u, at_s.final_v


def test_step_fixed_point_for_equal_pair(rng):
    atom = dp.L1Norm(1.0)
    inst = dp.DcInstance(g=atom, h=atom, dim=3)
    cfg = dp.TwoProxConfig(gamma=0.8, lam=1.3)
    s = rng.standard_normal(3)
    iterates, u, v = first_step(inst, cfg, s)
    assert len(iterates) == 1
    np.testing.assert_array_equal(iterates[0], s)
    np.testing.assert_array_equal(u, v)


def test_step_hand_example():
    cfg = dp.TwoProxConfig(gamma=1.0, lam=1.0)
    iterates, u, v = first_step(instance_a(), cfg, [0.0])
    assert (u[0], v[0], iterates[1][0]) == (-1.0, 0.0, 1.0)
    iterates, u, v = first_step(instance_a(), cfg, [2.0])
    assert (u[0], v[0], len(iterates), iterates[0][0]) == (1.0, 1.0, 1, 2.0)


def test_step_is_scaled_gradient_descent(rng):
    inst = dp.DcInstance(g=dp.L1Ball(0.4), h=dp.Quadratic(np.eye(3) * 1.5), dim=3)
    cfg = dp.TwoProxConfig(gamma=0.6, lam=1.4)
    for _ in range(20):
        s = rng.standard_normal(3) * 2
        (_, s_plus), _, _ = first_step(inst, cfg, s)
        grad = dp.dce_eval(inst, cfg.gamma, s).grad
        dev = np.linalg.norm((s_plus - s) + cfg.lam * cfg.gamma * grad)
        assert dev <= 1e-14 * (1.0 + np.linalg.norm(s))


# ---------------------------------------------------------------------------
# full runs

def test_run_from_stationary_point():
    rep = dp.run(instance_a(), dp.TwoProxConfig(gamma=1.0, tol=1e-12), [2.0])
    assert rep.converged and rep.iterations == 1
    assert rep.final_s[0] == 2.0


def test_run_converges_to_unique_stationary_point():
    cfg = dp.TwoProxConfig(gamma=1.0, lam=1.0, tol=1e-10, max_iter=200)
    rep = dp.run(instance_a(), cfg, [0.0])
    assert rep.converged
    assert rep.final_residual <= cfg.tol
    assert rep.final_s[0] == pytest.approx(2.0, abs=1e-9)
    assert rep.final_u[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.final_v[0] == pytest.approx(1.0, abs=1e-9)
    assert dp.residual_rate_check(rep)
    # quantified decrease holds along the recorded trace
    coeff = dp.descent_coefficient(cfg.gamma, cfg.lam)
    for a, b in zip(rep.trace, rep.trace[1:]):
        assert b.env <= a.env - coeff * a.residual ** 2 + 1e-12 * (1 + abs(a.env))


def test_env_trace_nonincreasing_and_summable(rng):
    spca, inst = dp.make_spca(30, seed=5)
    cfg = dp.TwoProxConfig(gamma=0.9 / spca.lam_max, tol=1e-6, max_iter=400)
    rep = dp.run(inst, cfg, spca.s0)
    envs = [tp.env for tp in rep.trace]
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(envs, envs[1:]))
    assert dp.residual_rate_check(rep)
    # explicit summability constant implied by the per-step decrease
    coeff = dp.descent_coefficient(cfg.gamma, cfg.lam)
    total = sum(tp.residual ** 2 for tp in rep.trace[:-1])
    assert total <= (envs[0] - min(envs)) / coeff * (1 + 1e-10) + 1e-12


def test_lambda_sweep_same_limit():
    limits = []
    for lam in (0.1, 0.5, 1.0, 1.5, 1.9):
        cfg = dp.TwoProxConfig(gamma=1.0, lam=lam, tol=1e-10, max_iter=5000)
        rep = dp.run(instance_a(), cfg, [0.0])
        assert rep.converged
        limits.append(rep.final_u[0])
    np.testing.assert_allclose(limits, 1.0, atol=1e-8)


def test_coercive_run_stays_bounded(rng):
    for c in dp.synthetic_catalogue():
        if c.dc is None or not c.coercive:
            continue
        cfg = dp.TwoProxConfig(gamma=c.gamma, lam=c.lam, tol=0.0, max_iter=150)
        inst, iterates = recording(c.dc)
        rep = dp.run(inst, cfg, c.s0)
        norms = [np.linalg.norm(s) for s in iterates()]
        assert max(norms) < 1e6
        assert rep.trace[-1].env <= rep.trace[0].env + 1e-12


def test_phi_trace_stabilizes():
    cfg = dp.TwoProxConfig(gamma=1.0, tol=1e-12, max_iter=2000)
    rep = dp.run(instance_a(), cfg, [0.0])
    tail = [tp.phi for tp in rep.trace[-10:]]
    assert max(tail) - min(tail) <= 1e-9


def test_converged_run_yields_common_subgradient(rng):
    spca, inst = dp.make_spca(15, seed=3)
    gamma = 0.9 / spca.lam_max
    cfg = dp.TwoProxConfig(gamma=gamma, tol=1e-8, max_iter=50000)
    rep = dp.run(inst, cfg, spca.s0)
    assert rep.converged
    samples = [rep.final_u + 0.5 * rng.standard_normal(15) for _ in range(20)]
    samples += [dp.prox_l1_ball(z, 0.0) for z in samples]
    gap = common_subgradient_gap(inst, gamma, rep.final_s, rep.final_u,
                                 rep.final_v, samples, slack=cfg.tol / gamma)
    assert gap <= 1e-9


def test_wrong_mu_triggers_numerical_error():
    # hypoconvex h presented as convex: the descent certificate must fail
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=0.0)
    rep = dp.run(inst, dp.TwoProxConfig(gamma=1.0, lam=1.9, tol=1e-9, max_iter=200),
                 [0.3])
    assert rep.termination is Termination.NUMERICAL_ERROR
    assert "descent" in rep.message


def test_hypoconvex_run_with_correct_mu():
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=0.5)
    cfg = dp.TwoProxConfig(gamma=1.0, lam=0.9, tol=1e-10, max_iter=500)
    rep = dp.run(inst, cfg, [1.5])
    assert rep.converged
    assert rep.final_u[0] == pytest.approx(0.0, abs=1e-9)
    assert dp.residual_rate_check(rep)


def test_strongly_convex_pair_allows_wider_relaxation():
    # both parts convex even after subtracting x^2/2: mu = -1 widens the
    # admissible relaxation range to (0, 2*(1 + gamma))
    inst = dp.DcInstance(g=dp.ScaledSquare(2.0), h=dp.ScaledSquare(1.0), dim=1,
                         mu=-1.0)
    cfg = dp.TwoProxConfig(gamma=1.0, lam=3.0, tol=1e-12, max_iter=200)
    cfg.validate(inst.mu)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=1.0, lam=3.0).validate(0.0)
    rep = dp.run(inst, cfg, [2.0])
    assert rep.converged
    assert rep.final_u[0] == pytest.approx(0.0, abs=1e-10)
    assert dp.residual_rate_check(rep)


def test_zero_dimensional_run():
    inst = dp.DcInstance(g=dp.Zero(), h=dp.Zero(), dim=0)
    rep = dp.run(inst, dp.TwoProxConfig(gamma=1.0), np.zeros(0))
    assert rep.converged and rep.iterations == 0


def test_run_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        dp.run(instance_a(), dp.TwoProxConfig(gamma=1.0), [np.nan])


# ---------------------------------------------------------------------------
# parameter gates

def test_config_boundaries_rejected():
    dp.TwoProxConfig(gamma=1.0, lam=1.999).validate(0.0)
    dp.TwoProxConfig(gamma=1.0, lam=0.001).validate(0.0)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=1.0, lam=2.0).validate(0.0)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=1.0, lam=0.0).validate(0.0)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=0.0, lam=1.0).validate(0.0)
    # hypoconvex tightening: lam < 2*(1 - gamma*mu), gamma*mu < 1
    dp.TwoProxConfig(gamma=1.0, lam=0.999).validate(0.5)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=1.0, lam=1.0).validate(0.5)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=2.0, lam=0.1).validate(0.5)


# ---------------------------------------------------------------------------
# diagonal-metric variant

def test_run_diag_uniform_reduces_to_scalar_bitwise():
    c = separable_2d()
    cfg = dp.TwoProxConfig(gamma=0.5, lam=1.25, tol=1e-10, max_iter=60)
    inst, scalar_iterates = recording(c.dc)
    scalar = dp.run(inst, cfg, c.s0)
    inst, diag_iterates = recording(c.dc)
    diag = dp.run_diag(inst, np.full(2, 0.5), np.full(2, 1.25), c.s0,
                       tol=1e-10, max_iter=60)
    assert scalar.iterations == diag.iterations == len(diag_iterates())
    for a, b in zip(scalar_iterates(), diag_iterates(), strict=True):
        np.testing.assert_array_equal(a, b)
    for ta, tb in zip(scalar.trace, diag.trace):
        assert ta.env == tb.env and ta.residual == tb.residual


def test_run_diag_separable_matches_independent_scalar_runs():
    c = separable_2d()
    gammas = np.array([1.0, 2.0])
    lams = np.array([1.0, 0.5])
    inst, diag_iterates = recording(c.dc)
    dp.run_diag(inst, gammas, lams, c.s0, tol=0.0, max_iter=40)
    # per-coordinate scalar problems
    insts = [dp.DcInstance(g=dp.ScaledSquare(1.0), h=dp.Linear([1.0]), dim=1),
             dp.DcInstance(g=dp.ScaledSquare(2.0), h=dp.Linear([2.0]), dim=1)]
    for coord in (0, 1):
        cfg = dp.TwoProxConfig(gamma=float(gammas[coord]), lam=float(lams[coord]),
                               tol=0.0, max_iter=40)
        inst, iterates = recording(insts[coord])
        dp.run(inst, cfg, c.s0[coord:coord + 1])
        for full, single in zip(diag_iterates(), iterates(), strict=True):
            assert full[coord] == pytest.approx(single[0], abs=1e-14)


def test_run_diag_weighted_descent(rng):
    c = separable_2d()
    for _ in range(10):
        gammas = rng.uniform(0.2, 2.0, 2)
        lams = rng.uniform(0.1, 1.9, 2)
        rep = dp.run_diag(c.dc, gammas, lams, rng.standard_normal(2) * 3,
                          tol=0.0, max_iter=50)
        assert rep.termination is not Termination.NUMERICAL_ERROR
        envs = [tp.env for tp in rep.trace]
        decr = [tp.decrement for tp in rep.trace]
        for i in range(len(envs) - 1):
            assert envs[i + 1] <= envs[i] - decr[i] + 1e-12 * (1 + abs(envs[i]))


def test_run_diag_parameter_gates():
    c = separable_2d()
    with pytest.raises(ValueError):
        dp.run_diag(c.dc, np.array([1.0, -1.0]), np.ones(2), c.s0)
    with pytest.raises(ValueError):
        dp.run_diag(c.dc, np.ones(2), np.array([2.0, 1.0]), c.s0)
    # criterion 9 checks the shifted boundary lam = 2*(1 - gamma*M)


def test_run_diag_needs_diag_capability():
    spca, inst = dp.make_spca(5, seed=0)
    with pytest.raises(dp.CapabilityError):
        dp.run_diag(inst, np.full(5, 0.01), np.full(5, 1.0), spca.s0, max_iter=3)


def test_fuzz_random_instances_keep_invariants(rng):
    # random bounded instances from the atom catalogue: the run must never
    # flag a descent violation, the summability certificate must hold, and
    # converged runs must produce an approximate common subgradient
    for trial in range(25):
        dim = int(rng.integers(1, 6))
        a = rng.standard_normal((dim, dim))
        spd = a @ a.T / dim + 0.1 * np.eye(dim)
        g = dp.L1Ball(float(rng.uniform(0.0, 1.0)))  # compact domain
        h = [dp.Quadratic(spd),
             dp.Linear(rng.standard_normal(dim)),
             dp.ScaledSquare(float(rng.uniform(0.1, 3.0)))][trial % 3]
        inst = dp.DcInstance(g=g, h=h, dim=dim)
        gamma = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.05, 1.95))
        cfg = dp.TwoProxConfig(gamma=gamma, lam=lam, tol=1e-9, max_iter=3000)
        rep = dp.run(inst, cfg, rng.standard_normal(dim) * 2)
        assert rep.termination is not Termination.NUMERICAL_ERROR, rep.message
        assert dp.residual_rate_check(rep)
        if rep.converged:
            zs = [rep.final_u + rng.standard_normal(dim) for _ in range(10)]
            gap = common_subgradient_gap(inst, gamma, rep.final_s, rep.final_u,
                                         rep.final_v, zs, slack=cfg.tol / gamma)
            assert gap <= 1e-8, f"trial {trial}: certificate gap {gap:.2e}"
