import numpy as np
import pytest

import dcprox as dp
from dcprox import lbfgs
from dcprox.lbfgs import MAX_BACKTRACKS, LbfgsMemory, wolfe_linesearch
from dcprox.reports import Iterate


def quadratic_env_instance(n=5, seed=11):
    # g strongly convex quadratic, h linear: the envelope is quadratic
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    sigma = a @ a.T / n + np.eye(n)
    c = rng.standard_normal(n)
    return dp.DcInstance(g=dp.Quadratic(sigma), h=dp.Linear(c), dim=n)


def dense_bfgs_apply(pairs, h0, g):
    hm = h0.copy()
    n = g.shape[0]
    for s, y, rho in pairs:
        v = np.eye(n) - rho * np.outer(s, y)
        hm = v @ hm @ v.T + rho * np.outer(s, s)
    return hm @ g


# ---------------------------------------------------------------------------
# direction machinery

def test_direction_zero_gradient():
    mem = LbfgsMemory()
    assert np.all(mem.direction(np.zeros(3), 0.7) == 0.0)
    mem.push(np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))
    assert np.all(mem.direction(np.zeros(3), 0.7) == 0.0)


def test_direction_empty_memory_is_scaled_steepest():
    mem = LbfgsMemory()
    g = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(mem.direction(g, 0.3), -0.3 * g)


def test_curvature_guard_rejects_bad_pairs():
    mem = LbfgsMemory()
    assert not mem.push(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert not mem.push(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert mem.push(np.array([1.0, 0.0]), np.array([0.5, 0.0]))
    assert len(mem.pairs) == 1


def test_two_loop_matches_dense_bfgs_oracle(rng, monkeypatch):
    monkeypatch.setattr(lbfgs, "MEMORY", 50)  # keeps all n pairs
    n = 6
    a = rng.standard_normal((n, n))
    hess = a @ a.T + n * np.eye(n)
    mem = LbfgsMemory()
    x = rng.standard_normal(n)
    for _ in range(n):
        g = hess @ x
        d = mem.direction(g, 1.0)
        alpha = -float(g @ d) / float(d @ (hess @ d))
        x_new = x + alpha * d
        mem.push(x_new - x, hess @ (x_new - x))
        x = x_new
    g = rng.standard_normal(n)
    ds, dy, _ = mem.pairs[-1]
    h0 = np.eye(n) * float(ds @ dy) / float(dy @ dy)
    expected = -dense_bfgs_apply(list(mem.pairs), h0, g)
    np.testing.assert_allclose(mem.direction(g, 1.0), expected, atol=1e-12)


def test_two_loop_recovers_newton_on_quadratic(rng, monkeypatch):
    # after dim exact-linesearch updates the inverse Hessian is exact
    monkeypatch.setattr(lbfgs, "MEMORY", 50)  # keeps all n pairs
    n = 6
    a = rng.standard_normal((n, n))
    hess = a @ a.T + n * np.eye(n)
    mem = LbfgsMemory()
    x = rng.standard_normal(n)
    for _ in range(n):
        g = hess @ x
        d = mem.direction(g, 1.0)
        alpha = -float(g @ d) / float(d @ (hess @ d))
        x_new = x + alpha * d
        mem.push(x_new - x, hess @ (x_new - x))
        x = x_new
    g = rng.standard_normal(n)
    newton = -np.linalg.solve(hess, g)
    assert np.linalg.norm(mem.direction(g, 1.0) - newton) <= 1e-6 * np.linalg.norm(newton)


def test_direction_safeguard_forces_descent():
    mem = LbfgsMemory()
    mem.push(np.array([1.0, 0.0]), np.array([0.5, 0.0]))
    g = np.array([0.3, -0.8])
    d = dp.lbfgs_direction(mem, g, 0.7)
    assert float(d @ g) < 0


# ---------------------------------------------------------------------------
# linesearch

def _env_oracle(inst, gamma):
    def eval_at_point(x):
        u = inst.h.prox(x, gamma)
        v = inst.g.prox(x, gamma)
        from dcprox.envelope import env_value_from_pair
        env = env_value_from_pair(inst, gamma, x, u, v)
        return Iterate(x, u, v, env, float(np.linalg.norm(u - v)), grad=(u - v) / gamma)
    return eval_at_point


def test_wolfe_accepts_unit_step_on_quadratic(rng):
    inst = quadratic_env_instance()
    gamma = 0.5
    evaluate = _env_oracle(inst, gamma)
    for _ in range(10):
        s = rng.standard_normal(5) * 2
        ev0 = evaluate(s)
        d = -gamma * ev0.grad
        alpha, ev = wolfe_linesearch(lambda a: evaluate(s + a * d), ev0.env,
                                     ev0.grad, d)
        assert alpha == 1.0
        assert ev.env <= ev0.env + 1e-4 * alpha * float(ev0.grad @ d)


def test_wolfe_rejects_ascent_direction(rng):
    inst = quadratic_env_instance()
    evaluate = _env_oracle(inst, 0.5)
    s = rng.standard_normal(5)
    ev0 = evaluate(s)
    with pytest.raises(ValueError):
        wolfe_linesearch(lambda a: evaluate(s + a * ev0.grad), ev0.env,
                         ev0.grad, ev0.grad)


def test_wolfe_exhaustion_returns_none():
    inst = quadratic_env_instance()
    evaluate = _env_oracle(inst, 0.5)
    s = np.ones(5)
    ev0 = evaluate(s)
    d = -0.5 * ev0.grad
    trials = []

    def rejected(a):
        # an infinite envelope fails the Armijo test at every trial stepsize
        trials.append(a)
        return Iterate(s, s, s, np.inf, 0.0, grad=ev0.grad)

    alpha, ev = wolfe_linesearch(rejected, ev0.env, ev0.grad, d)
    assert alpha is None and ev is None
    assert len(trials) == MAX_BACKTRACKS


# ---------------------------------------------------------------------------
# accelerated runs

def test_run_from_stationary_point():
    inst = dp.DcInstance(g=dp.ScaledSquare(1.0), h=dp.Linear([1.0]), dim=1)
    rep = dp.run_lbfgs(inst, dp.TwoProxConfig(gamma=1.0, tol=1e-12), [2.0])
    assert rep.converged and rep.iterations == 1


def test_run_near_newton_on_1d():
    inst = dp.DcInstance(g=dp.ScaledSquare(1.0), h=dp.Linear([1.0]), dim=1)
    rep = dp.run_lbfgs(inst, dp.TwoProxConfig(gamma=1.0, tol=1e-10, max_iter=50),
                       [0.0])
    assert rep.converged and rep.iterations <= 10
    assert rep.final_u[0] == pytest.approx(1.0, abs=1e-9)


def test_run_fast_on_quadratic_envelope():
    inst = quadratic_env_instance(n=8)
    rep = dp.run_lbfgs(inst, dp.TwoProxConfig(gamma=0.5, tol=1e-10, max_iter=200),
                       np.zeros(8))
    assert rep.converged and rep.iterations <= 3 * 8
    envs = rep.trace.env
    # Armijo decrease: nonincreasing in floats, strictly lower overall
    assert all(b <= a for a, b in zip(envs, envs[1:]))
    assert envs[-1] < envs[0]


def test_fallback_bit_matches_plain_step(monkeypatch):
    spca, inst = dp.make_spca(10, seed=4)
    gamma = 0.9 / spca.lam_max
    cfg = dp.TwoProxConfig(gamma=gamma, lam=1.0, tol=1e-6, max_iter=3)
    # an exhausted linesearch forces the fallback every time
    monkeypatch.setattr(lbfgs, "wolfe_linesearch", lambda *args: (None, None))
    rep = dp.run_lbfgs(inst, cfg, spca.s0)
    plain = dp.run(inst, cfg, spca.s0)
    assert len(rep.trace) == len(plain.trace)
    assert rep.trace.env == plain.trace.env and rep.trace.residual == plain.trace.residual
    assert rep.trace.decrement == plain.trace.decrement


def test_every_step_claims_its_decrease(monkeypatch):
    # an accepted quasi-Newton step claims the Armijo decrease its linesearch
    # tested, a fallback the relaxed step's; the final point claims none
    spca, inst = dp.make_spca(30, seed=0)
    claims = []

    def spied(eval_at, env0, grad0, d):
        alpha, ev = wolfe_linesearch(eval_at, env0, grad0, d)
        claims.append(None if ev is None else -(lbfgs.C1 * alpha * float(grad0.dot(d))))
        return alpha, ev

    monkeypatch.setattr(lbfgs, "wolfe_linesearch", spied)
    rep = dp.run_lbfgs(inst, dp.TwoProxConfig(gamma=0.9 / spca.lam_max), spca.s0)
    assert rep.converged and len(claims) == rep.iterations - 1
    accepted = [(k, decrement, claim)
                for k, (decrement, claim) in enumerate(zip(rep.trace.decrement, claims))
                if claim is not None]
    assert accepted
    assert all(decrement == claim > 0 for _, decrement, claim in accepted), accepted
    assert all(decrement > 0 for decrement in rep.trace.decrement[:-1])
    assert rep.trace.decrement[-1] == 0.0


def test_spca_beats_plain(rng):
    spca, inst = dp.make_spca(40, seed=1)
    gamma = 0.9 / spca.lam_max
    cfg = dp.TwoProxConfig(gamma=gamma, tol=1e-6, max_iter=1000)
    accel = dp.run_lbfgs(inst, cfg, spca.s0)
    plain = dp.run(inst, cfg, spca.s0)
    assert accel.converged
    assert accel.iterations < plain.iterations
    # linear prox_h: one h-prox per linesearch, so far fewer than g-proxes
    prox_h, prox_g, _ = accel.counts()
    assert prox_h <= prox_g + 2


def test_hypoconvex_instance_accelerated():
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=0.5)
    cfg = dp.TwoProxConfig(gamma=1.0, lam=0.9, tol=1e-10, max_iter=100)
    rep = dp.run_lbfgs(inst, cfg, [1.5])
    assert rep.converged
    assert rep.final_u[0] == pytest.approx(0.0, abs=1e-9)


def test_fuzz_random_instances_monotone(rng):
    # accelerated runs on random bounded instances: monotone envelope trace,
    # and never slower than the relaxed baseline by more than the budget
    for trial in range(15):
        dim = int(rng.integers(1, 7))
        a = rng.standard_normal((dim, dim))
        spd = a @ a.T / dim + 0.2 * np.eye(dim)
        inst = dp.DcInstance(g=dp.L1Ball(float(rng.uniform(0.0, 1.0))),
                             h=dp.Quadratic(spd), dim=dim)
        gamma = float(rng.uniform(0.05, 1.5))
        cfg = dp.TwoProxConfig(gamma=gamma, tol=1e-8, max_iter=2000)
        rep = dp.run_lbfgs(inst, cfg, rng.standard_normal(dim) * 2)
        assert rep.converged, f"trial {trial} stalled"
        envs = rep.trace.env
        assert all(b <= a_ + 1e-12 * (1 + abs(a_)) for a_, b in zip(envs, envs[1:]))

