"""Three-term problems: the three-prox recursion on Psi (the test-side
reference ``oracles.run3_psi``), the unit-coupling lifted oracle that
reproduces it, and ``dcprox.run3``, L-BFGS on the kappa-lift's envelope."""

import numpy as np
import pytest

import dcprox as dp
from dcprox import cli
from dcprox.checks import check_gradient, evaluate_points
from dcprox.envelope import env_value_from_pair
from dcprox.reports import Termination
from dcprox.three_prox import GAMMA_KAPPA, lift
from oracles import (ConjugatePart, ThreeProxConfig, lifted_pair, prox_conjugate_scaled,
                     prox_diag, psi_gradient_identity_check, psi_value, recording,
                     residual_rate_check, run3_psi, run3_via_lifted,
                     stationarity_certificate, three_prox_step)


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
            u_l = prox_diag(lifted.h, x, gamma_diag)
            v_l = prox_diag(lifted.g, x, gamma_diag)
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
    rep = run3_psi(zeros_instance(), cfg, [0.7], [0.7])
    assert rep.converged and rep.iterations == 1


def test_run3_converges_on_quadratic():
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.9, tol=1e-10,
                          max_iter=5000)
    rep = run3_psi(quad_instance(), cfg, [1.5], [1.5])
    assert rep.converged
    for val in (rep.final_u, rep.final_v, rep.final_z):
        assert abs(val[0]) <= 1e-9
    # surrogate descent with the weighted decrement held throughout
    envs = rep.trace.env
    assert all(b <= a - d + 1e-12 * (1 + abs(a)) for a, d, b in
               zip(envs, rep.trace.decrement, envs[1:]))
    assert residual_rate_check(rep)


def test_run3_stationarity_certificate(rng):
    inst = mixed_instance()
    cfg = ThreeProxConfig(tol=1e-10, max_iter=20000)
    rep = run3_psi(inst, cfg, [1.0, -0.5], [0.5, 0.5])
    assert rep.converged
    samples = [rep.final_u + rng.standard_normal(2) for _ in range(30)]
    gap = stationarity_certificate(inst, cfg, rep, samples,
                                   slack=cfg.tol / min(cfg.gamma, 1.0))
    assert gap <= 1e-8


def test_run3_residual_summability():
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.9, tol=1e-10,
                          max_iter=5000)
    rep = run3_psi(quad_instance(), cfg, [1.5], [-0.3])
    envs = rep.trace.env
    assert sum(rep.trace.decrement) <= \
        (envs[0] - min(envs)) * (1 + 1e-10) + 1e-12


def test_run3_rejects_a_zero_dimensional_instance():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be at least 1"):
            dp.ThreeTermInstance(f=dp.Zero(), g=dp.Zero(), h=dp.Zero(), dim=dim)


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
    # the default relaxations are 0.9 times half their ranges
    cfg = ThreeProxConfig()
    cfg.validate()
    assert cfg.lam == 0.9 * (1.0 - cfg.gamma)
    assert cfg.mu == 0.9 * (1.0 - 1.0 / cfg.delta)


# ---------------------------------------------------------------------------
# lifted-pair oracle

def test_lifted_iteration_reproduces_direct_recursion(rng):
    for inst, s0, t0 in [(quad_instance(), [1.5], [0.7]),
                         (mixed_instance(), [0.9, -0.4], [0.2, 1.1])]:
        cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.45, tol=0.0,
                              max_iter=100)
        recorded, direct = recording(inst)
        run3_psi(recorded, cfg, s0, t0)
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
        rep = run3_psi(inst, cfg, rng.standard_normal(dim), rng.standard_normal(dim))
        assert rep.termination is not Termination.NUMERICAL_ERROR, rep.message
        assert residual_rate_check(rep)
        if rep.converged:
            zs = [rep.final_u + rng.standard_normal(dim) for _ in range(8)]
            gap = stationarity_certificate(inst, cfg, rep, zs,
                                           slack=cfg.tol / min(gamma, 1.0))
            assert gap <= 1e-6, f"trial {trial}: certificate gap {gap:.2e}"


def test_lifted_coupling_needs_blockwise_uniform_metric():
    coupling = lifted_pair(mixed_instance()).h
    with pytest.raises(dp.CapabilityError):
        coupling.prox_diag(np.ones(4), np.array([0.5, 0.4, 0.5, 0.5]))
    with pytest.raises(ValueError):
        coupling.prox_diag(np.ones(4), np.array([2.0, 2.0, 0.6, 0.6]))


# ---------------------------------------------------------------------------
# dcprox.run3: L-BFGS on the kappa-lift

def quadratic_instance(rng):
    # f a full quadratic with a closed-form conjugate, h a scaled square
    a = rng.standard_normal((3, 3))
    return dp.ThreeTermInstance(f=dp.Quadratic(a @ a.T / 3 + 0.1 * np.eye(3)),
                                g=dp.L1Ball(0.5), h=dp.ScaledSquare(0.25), dim=3)


def test_lifted_h_prox_solves_its_stationarity_system(rng):
    # H(x, y) = h(x) + kappa*<x, y>, h = c/2 ||x||^2: the prox (x, y) of
    # gamma*H at (s, t) solves c*x + kappa*y + (x - s)/gamma = 0 and
    # kappa*x + (y - t)/gamma = 0
    for inst in (mixed_instance(), quadratic_instance(rng)):
        n = inst.dim
        for _ in range(10):
            gamma = float(rng.uniform(0.1, 3.0))
            kappa = GAMMA_KAPPA / gamma
            st = rng.standard_normal(2 * n)
            u = lift(inst, gamma).h.prox(st, gamma)
            x, y = u[:n], u[n:]
            grad_h = inst.h.curvature * x
            np.testing.assert_allclose(grad_h + kappa * y + (x - st[:n]) / gamma, 0.0,
                                       atol=1e-12 * (1.0 + np.abs(st).max() / gamma))
            np.testing.assert_allclose(kappa * x + (y - st[n:]) / gamma, 0.0,
                                       atol=1e-12 * (1.0 + np.abs(st).max() / gamma))


def test_lifted_g_is_g_and_the_scaled_conjugate_of_f(rng):
    # G(x, y) = g(x) + f*(kappa*y): its y-block prox is (1/kappa) times the
    # prox of gamma*kappa^2*f* at kappa*t, and its envelope is the value of
    # f* at kappa*p plus the metric term, f* in closed form
    for inst in (mixed_instance(), quadratic_instance(rng)):
        n = inst.dim
        conj = ConjugatePart(inst.f)
        for _ in range(10):
            gamma = float(rng.uniform(0.1, 3.0))
            kappa = GAMMA_KAPPA / gamma
            st = rng.standard_normal(2 * n)
            g_lift = lift(inst, gamma).g
            v = g_lift.prox(st, gamma)
            np.testing.assert_array_equal(v[:n], inst.g.prox(st[:n], gamma))
            p = prox_conjugate_scaled(inst.f, gamma * kappa ** 2, kappa * st[n:]) / kappa
            np.testing.assert_allclose(v[n:], p, rtol=1e-12, atol=1e-12)
            d = v[n:] - st[n:]
            env = (inst.g.envelope_at_prox(v[:n], st[:n], gamma) + conj.value(kappa * v[n:])
                   + 0.5 * float(d @ d) / gamma)
            assert g_lift.envelope_at_prox(v, st, gamma) == pytest.approx(env, rel=1e-10)


@pytest.mark.parametrize("which", ["mixed", "quadratic", "spca3"])
def test_lifted_envelope_gradient_is_the_prox_gap(which, rng):
    # the lift is a DC pair like any other: its envelope's gradient is
    # (u - v)/gamma, checked by central differences as dcprox check does
    if which == "spca3":
        spca, inst = dp.make_spca3(20, seed=0)
        gamma = cli.GAMMA_POLICY["three-prox"] / spca.lam_max
    else:
        inst = mixed_instance() if which == "mixed" else quadratic_instance(rng)
        gamma = 0.7
    pair = lift(inst, gamma)
    points = [rng.standard_normal(2 * inst.dim) for _ in range(20)]
    ok, worst, budget = check_gradient(pair, gamma, evaluate_points(pair, gamma, points))
    assert ok, f"gradient mismatch {worst:.2e} > {budget:.0e}"


def test_run3_reports_the_lifted_run_at_the_x_block(rng):
    inst = quadratic_instance(rng)
    cfg = dp.TwoProxConfig(gamma=0.7, lam=0.45, tol=1e-10, max_iter=5000)
    rep = dp.run3(inst, cfg, [0.9, -0.4, 0.3])
    assert rep.converged and rep.solver == "three-prox"
    assert rep.final_s.shape == rep.final_u.shape == rep.final_v.shape == (3,)
    assert rep.phi == inst.phi(rep.final_v)
    envs = rep.trace.env
    assert all(b <= a - d + 1e-12 * (1 + abs(a)) for a, d, b in
               zip(envs, rep.trace.decrement, envs[1:]))
    assert residual_rate_check(rep)
    # its relaxation is capped by the coupling: 2*(1 - GAMMA_KAPPA) = 1
    with pytest.raises(ValueError, match="lam must lie in"):
        dp.run3(inst, dp.TwoProxConfig(gamma=0.7, lam=1.0), [0.9, -0.4, 0.3])


def test_run3_reaches_the_dce_lbfgs_critical_point_on_spca3():
    # at the command-line stepsize L-BFGS on the lift leaves the trivial
    # critical point v = 0 and converges where dce-lbfgs does on the two-term
    # split; at n = 300 and the command line's budget the relaxed iteration
    # on the lift runs out of iterations first
    for n, budget, phi in ((30, 5000, -46.157), (300, 2000, -431.117)):
        spca3, inst3 = dp.make_spca3(n, seed=0)
        three, _ = cli._solve_one("three-prox", "spca3", (spca3, inst3), 1e-6, budget)
        spca, inst = dp.make_spca(n, seed=0)
        two, _ = cli._solve_one("dce-lbfgs", "spca", (spca, inst), 1e-6, budget)
        assert three.converged and two.converged
        assert three.phi == pytest.approx(two.phi, rel=1e-6)
        assert two.phi == pytest.approx(phi, abs=1e-3)
    # spca3, n and budget are the n = 300 case's
    cfg = dp.TwoProxConfig(gamma=cli.GAMMA_POLICY["three-prox"] / spca3.lam_max,
                           max_iter=budget)
    plain = dp.run(lift(inst3, cfg.gamma), cfg, np.concatenate([spca3.s0, np.zeros(n)]))
    assert plain.termination is Termination.MAX_ITER


@pytest.mark.parametrize("h,affine", [(dp.Zero(), True), (dp.ScaledSquare(0.25), True),
                                      (dp.L1Norm(0.5), False)],
                         ids=["zero", "scaled-square", "l1-norm"])
def test_lifted_h_prox_is_affine_with_h_prox(h, affine):
    # an affine prox of h makes the lift's affine, so L-BFGS on the lift
    # reuses one prox of H per linesearch
    inst = dp.ThreeTermInstance(f=dp.ScaledSquare(1.0), g=dp.L1Ball(0.5), h=h, dim=2)
    assert inst.h.prox_is_affine is affine
    assert lift(inst, 0.7).h.prox_is_affine is affine


def test_run3_runs_with_the_default_relaxation():
    # lam left None is worked out on the lift, whose modulus is its coupling
    spca, inst = dp.make_spca3(30, seed=0)
    gamma = 0.5 / spca.lam_max
    rep = dp.run3(inst, dp.TwoProxConfig(gamma=gamma, max_iter=3000), spca.s0)
    assert rep.converged
    assert rep.phi == pytest.approx(-46.157, abs=1e-3)
    lam = dp.TwoProxConfig(gamma=gamma).validate(GAMMA_KAPPA / gamma)
    explicit = dp.run3(inst, dp.TwoProxConfig(gamma=gamma, lam=lam, max_iter=3000), spca.s0)
    assert rep.phi == explicit.phi
    for column in ("k", "env", "residual", "decrement", "prox_h", "prox_g"):
        assert getattr(rep.trace, column) == getattr(explicit.trace, column), column
