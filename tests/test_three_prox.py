import numpy as np
import pytest

import dcprox as dp
from dcprox.envelope import env_value_from_pair
from dcprox.reports import Termination
from dcprox.three_prox import ThreeProxConfig, default_config
from oracles import (lifted_pair, psi_gradient_identity_check, psi_value,
                     recording, run3_via_lifted, three_prox_step)


def zeros_instance():
    return dp.ThreeTermInstance(f=dp.Zero(), g=dp.Zero(), h=dp.Zero(), dim=1)


def quad_instance():
    # phi(x) = x^2 - 0 - x^2/2 = x^2/2, minimized at 0
    return dp.ThreeTermInstance(f=dp.ScaledSquare(1.0), g=dp.ScaledSquare(2.0),
                                h=dp.Zero(), dim=1)


def mixed_instance():
    # all three parts nontrivial (phi bounded on the ball), conjugate of f
    # in closed form
    return dp.ThreeTermInstance(f=dp.ScaledSquare(1.0), g=dp.L1Ball(0.5),
                                h=dp.ScaledSquare(0.25), dim=2)


# ---------------------------------------------------------------------------
# step and surrogate value

def test_step_identity_proxes_fixed_point():
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.5, mu=0.5)
    s_plus, t_plus, u, v, z = three_prox_step(zeros_instance(), cfg, [1.0], [1.0])
    assert u[0] == v[0] == z[0] == 1.0
    assert s_plus[0] == 1.0 and t_plus[0] == 1.0


def test_step_hand_example():
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.5, mu=0.5)
    s_plus, t_plus, u, v, z = three_prox_step(zeros_instance(), cfg, [1.0], [0.0])
    assert u[0] == pytest.approx(4.0 / 3.0)
    assert v[0] == 1.0 and z[0] == 0.0
    assert s_plus[0] == pytest.approx(5.0 / 6.0)
    assert t_plus[0] == pytest.approx(2.0 / 3.0)


def test_updates_are_jacobi_not_gauss_seidel():
    # t+ must use the pre-update u and z only; recompute by hand
    cfg = ThreeProxConfig(gamma=0.25, delta=4.0, lam=0.7, mu=0.7)
    inst = mixed_instance()
    s = np.array([0.8, -0.4])
    t = np.array([-0.2, 0.5])
    s_plus, t_plus, u, v, z = three_prox_step(inst, cfg, s, t)
    np.testing.assert_allclose(s_plus, s + cfg.lam * (v - u), atol=1e-15)
    np.testing.assert_allclose(t_plus, t + cfg.mu * (u - z), atol=1e-15)


def test_psi_value_zero_functions(rng):
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.5, mu=0.5)
    inst = zeros_instance()
    for _ in range(10):
        s, t = rng.standard_normal(1), rng.standard_normal(1)
        expected = float((s - t) @ (s - t)) / (2.0 * (cfg.delta - cfg.gamma))
        assert psi_value(inst, cfg, s, t) == pytest.approx(expected)
    assert psi_value(inst, cfg, [2.0], [2.0]) == 0.0


def test_psi_matches_lifted_envelope(rng):
    # the surrogate equals the doubled-space envelope at (s, t/delta)
    for inst in (quad_instance(), mixed_instance()):
        cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.45)
        lifted = lifted_pair(inst)
        n = inst.dim
        gamma_diag = np.concatenate([np.full(n, cfg.gamma), np.full(n, 1 / cfg.delta)])
        for _ in range(10):
            s, t = rng.standard_normal(n), rng.standard_normal(n)
            x = np.concatenate([s, t / cfg.delta])
            u_l = lifted.h.prox_diag(x, gamma_diag)
            v_l = lifted.g.prox_diag(x, gamma_diag)
            env = env_value_from_pair(lifted, gamma_diag, x, u_l, v_l)
            assert psi_value(inst, cfg, s, t) == pytest.approx(env, abs=1e-10)


def test_psi_gradient_identity(rng):
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.45)
    inst = quad_instance()
    for _ in range(50):
        s, t = rng.standard_normal(1) * 2, rng.standard_normal(1) * 2
        dev = psi_gradient_identity_check(inst, cfg, s, t)
        scale = 1.0 + float(np.linalg.norm(np.concatenate([s, t])))
        assert dev <= 1e-5 * scale
    # exact quadratic surrogate: deviation at rounding level
    dev = psi_gradient_identity_check(zeros_instance(), cfg, [1.0], [0.5])
    assert dev <= 1e-9


# ---------------------------------------------------------------------------
# full runs

def test_run3_from_fixed_point():
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.5, mu=0.5, tol=1e-12)
    rep = dp.run3(zeros_instance(), cfg, [0.7], [0.7])
    assert rep.converged and rep.iterations == 1


def test_run3_converges_on_quadratic():
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.9, tol=1e-10,
                          max_iter=5000)
    rep = dp.run3(quad_instance(), cfg, [1.5], [1.5])
    assert rep.converged
    for val in (rep.final_u, rep.final_v, rep.final_z):
        assert abs(val[0]) <= 1e-9
    # surrogate descent with the weighted decrement held throughout
    envs = [tp.env for tp in rep.trace]
    assert all(b <= a - d + 1e-12 * (1 + abs(a)) for (a, d), b in
               zip([(tp.env, tp.decrement) for tp in rep.trace], envs[1:]))
    assert dp.residual_rate_check(rep)


def test_run3_stationarity_certificate(rng):
    inst = mixed_instance()
    cfg = default_config(gamma=0.5, delta=2.0, tol=1e-10, max_iter=20000)
    rep = dp.run3(inst, cfg, [1.0, -0.5], [0.5, 0.5])
    assert rep.converged
    samples = [rep.final_u + rng.standard_normal(2) for _ in range(30)]
    gap = dp.stationarity_certificate(inst, cfg, rep, samples,
                                      slack=cfg.tol / min(cfg.gamma, 1.0))
    assert gap <= 1e-8


def test_run3_residual_summability():
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.9, tol=1e-10,
                          max_iter=5000)
    rep = dp.run3(quad_instance(), cfg, [1.5], [-0.3])
    envs = [tp.env for tp in rep.trace]
    assert sum(tp.decrement for tp in rep.trace) <= \
        (envs[0] - min(envs)) * (1 + 1e-10) + 1e-12


def test_run3_zero_dim():
    inst = dp.ThreeTermInstance(f=dp.Zero(), g=dp.Zero(), h=dp.Zero(), dim=0)
    rep = dp.run3(inst, ThreeProxConfig(), np.zeros(0), np.zeros(0))
    assert rep.converged and rep.iterations == 0


# ---------------------------------------------------------------------------
# parameter gates

def test_config_box_boundaries_rejected():
    ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.999, mu=0.999).validate()
    cases = [dict(gamma=1.0, delta=2.0, lam=0.5, mu=0.5),   # gamma = 1
             dict(gamma=0.0, delta=2.0, lam=0.5, mu=0.5),
             dict(gamma=0.5, delta=1.0, lam=0.5, mu=0.5),   # delta = 1
             dict(gamma=0.5, delta=2.0, lam=1.0, mu=0.5),   # lam = 2*(1-gamma)
             dict(gamma=0.5, delta=2.0, lam=0.0, mu=0.5),
             dict(gamma=0.5, delta=2.0, lam=0.5, mu=1.0),   # mu = 2*(1-1/delta)
             dict(gamma=0.5, delta=2.0, lam=0.5, mu=0.0)]
    for kw in cases:
        with pytest.raises(ValueError):
            ThreeProxConfig(**kw).validate()


def test_default_config_sits_inside_the_box():
    cfg = default_config(gamma=0.3, delta=3.0)
    cfg.validate()
    assert cfg.lam == pytest.approx(0.9 * (1.0 - 0.3))
    assert cfg.mu == pytest.approx(0.9 * (1.0 - 1.0 / 3.0))


# ---------------------------------------------------------------------------
# lifted-pair oracle

def test_lifted_iteration_reproduces_direct_recursion(rng):
    for inst, s0, t0 in [(quad_instance(), [1.5], [0.7]),
                         (mixed_instance(), [0.9, -0.4], [0.2, 1.1])]:
        cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.45, tol=0.0,
                              max_iter=100)
        recorded, direct = recording(inst)
        dp.run3(recorded, cfg, s0, t0)
        report, lifted = run3_via_lifted(inst, cfg, s0, t0)
        assert report.termination is not Termination.NUMERICAL_ERROR
        assert len(direct()) == len(lifted) == 100
        n = inst.dim
        for (s_d, t_d), x_l in zip(direct(), lifted):
            assert np.max(np.abs(s_d - x_l[:n])) <= 1e-12
            assert np.max(np.abs(t_d / cfg.delta - x_l[n:])) <= 1e-12


def test_lifted_pair_values(rng):
    inst = quad_instance()
    lifted = lifted_pair(inst)
    # G(x, y) = g(x) + conj(f)(y) with conj of x^2/2 being y^2/2
    x = np.array([1.5, 0.8])
    assert lifted.g.value(x) == pytest.approx(1.5 ** 2 + 0.8 ** 2 / 2.0)
    # H(x, y) = h(x) + <x, y>
    assert lifted.h.value(x) == pytest.approx(1.5 * 0.8)


def test_fuzz_random_triples_keep_surrogate_descent(rng):
    # random bounded three-term instances: no descent flags, certificates
    # hold at convergence
    for trial in range(20):
        dim = int(rng.integers(1, 5))
        a = rng.standard_normal((dim, dim))
        spd = a @ a.T / dim + 0.1 * np.eye(dim)
        inst = dp.ThreeTermInstance(
            f=[dp.Quadratic(spd), dp.ScaledSquare(0.7), dp.Zero()][trial % 3],
            g=dp.L1Ball(float(rng.uniform(0.0, 0.8))),
            h=[dp.Zero(), dp.ScaledSquare(0.3)][trial % 2],
            dim=dim)
        gamma = float(rng.uniform(0.1, 0.9))
        delta = float(rng.uniform(1.1, 4.0))
        cfg = ThreeProxConfig(
            gamma=gamma, delta=delta,
            lam=float(rng.uniform(0.1, 0.95)) * 2.0 * (1.0 - gamma),
            mu=float(rng.uniform(0.1, 0.95)) * 2.0 * (1.0 - 1.0 / delta),
            tol=1e-8, max_iter=20000)
        rep = dp.run3(inst, cfg, rng.standard_normal(dim), rng.standard_normal(dim))
        assert rep.termination is not Termination.NUMERICAL_ERROR, rep.message
        assert dp.residual_rate_check(rep)
        if rep.converged:
            zs = [rep.final_u + rng.standard_normal(dim) for _ in range(8)]
            gap = dp.stationarity_certificate(inst, cfg, rep, zs,
                                              slack=cfg.tol / min(gamma, 1.0))
            assert gap <= 1e-6, f"trial {trial}: certificate gap {gap:.2e}"


def test_lifted_coupling_needs_blockwise_uniform_metric():
    coupling = lifted_pair(mixed_instance()).h
    with pytest.raises(dp.CapabilityError):
        coupling.prox_diag(np.ones(4), np.array([0.5, 0.4, 0.5, 0.5]))
    with pytest.raises(ValueError):
        coupling.prox_diag(np.ones(4), np.array([2.0, 2.0, 0.6, 0.6]))
