import numpy as np
import pytest

import dcprox as dp
from dcprox.checks import check_gradient, check_sandwich, finite_difference_gradient
from dcprox.envelope import dc_value, env_value_from_pair, envelope_of_smooth_pair


def instance_a():
    return dp.DcInstance(g=dp.ScaledSquare(1.0), h=dp.Linear([1.0]), dim=1)


def instance_equal():
    atom = dp.L1Norm(1.0)
    return dp.DcInstance(g=atom, h=atom, dim=3)


def catalogue_dc():
    return [(c.name, c.dc, c.gamma, c.s0)
            for c in dp.synthetic_catalogue() if c.dc is not None]


# ---------------------------------------------------------------------------
# evaluation basics

def test_equal_pair_envelope_vanishes(rng):
    inst = instance_equal()
    for _ in range(10):
        ev = dp.dce_eval(inst, 0.7, rng.standard_normal(3))
        assert ev.env == 0.0
        assert np.all(ev.grad == 0.0)
        assert ev.residual == 0.0


def test_dce_eval_hand_example():
    ev = dp.dce_eval(instance_a(), 1.0, [0.0])
    assert ev.u[0] == pytest.approx(-1.0)
    assert ev.v[0] == pytest.approx(0.0)
    assert ev.env == pytest.approx(0.5)
    assert ev.grad[0] == pytest.approx(-1.0)
    # eval invariants: grad = (u-v)/gamma, residual = gamma*||grad||
    np.testing.assert_allclose(ev.grad, (ev.u - ev.v) / ev.gamma)
    assert ev.residual == pytest.approx(ev.gamma * np.linalg.norm(ev.grad))


def test_envelope_matches_moreau_difference(rng):
    inst = dp.DcInstance(g=dp.L1Ball(0.4), h=dp.Quadratic(np.eye(3) * 0.5), dim=3)
    for _ in range(5):
        s = rng.standard_normal(3)
        ev = dp.dce_eval(inst, 0.9, s)
        direct = dp.moreau_value(inst.g, 0.9, s) - dp.moreau_value(inst.h, 0.9, s)
        assert ev.env == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("name,inst,gamma,s0", catalogue_dc())
def test_gradient_matches_finite_differences(name, inst, gamma, s0, rng):
    points = [s0 + rng.standard_normal(inst.dim) for _ in range(20)]
    ok, worst, budget = check_gradient(inst, gamma, points)
    assert ok, f"{name}: fd mismatch {worst:.2e} > {budget:.2e}"


def test_gradient_inner_product_bound(rng):
    # <grad(s) - grad(s'), s - s'> <= ||s - s'||^2 / gamma on random pairs
    inst = dp.DcInstance(g=dp.L1Ball(0.4), h=dp.Quadratic(np.eye(3) * 2.0), dim=3)
    gamma = 0.4
    for _ in range(100):
        s, s2 = rng.standard_normal(3) * 2, rng.standard_normal(3) * 2
        d = dp.dce_eval(inst, gamma, s).grad - dp.dce_eval(inst, gamma, s2).grad
        assert float(d @ (s - s2)) <= float((s - s2) @ (s - s2)) / gamma + 1e-9


# ---------------------------------------------------------------------------
# sandwich bounds and stationarity

def test_sandwich_hand_example():
    lower, upper = dp.sandwich_bounds(instance_a(), 1.0, [0.0])
    assert lower == pytest.approx(0.5)
    assert upper == pytest.approx(1.0)
    env = dp.dce_eval(instance_a(), 1.0, [0.0]).env
    assert lower <= env <= upper


def test_sandwich_on_random_points(rng):
    spca, inst = dp.make_spca(20, seed=1)
    gamma = 0.9 / spca.lam_max
    points = [rng.standard_normal(20) for _ in range(10)]
    ok, worst, _ = check_sandwich(inst, gamma, points)
    assert ok, f"violation {worst}"


def test_sandwich_allows_infinite_side():
    # u = prox of a linear h can leave the ball, so phi(u) = +inf is legal
    inst = dp.DcInstance(g=dp.UnitBall(), h=dp.Linear([1.0]), dim=1)
    lower, upper = dp.sandwich_bounds(inst, 5.0, [3.0])
    assert upper == np.inf
    assert lower <= dp.dce_eval(inst, 5.0, [3.0]).env


def test_is_stationary():
    inst = instance_a()
    assert dp.is_stationary(inst, 1.0, [2.0], 0.0)
    assert not dp.is_stationary(inst, 1.0, [0.0], 1e-6)
    assert dp.is_stationary(instance_equal(), 0.3, [1.0, -2.0, 0.5], 0.0)
    with pytest.raises(ValueError):
        dp.is_stationary(inst, 1.0, [0.0], -1.0)


def test_minimum_transfer_through_prox():
    # the envelope's grid argmin maps through prox_h onto the argmin of phi
    inst = instance_a()
    s_grid = np.linspace(-2.0, 6.0, 80001)
    envs = [dp.dce_eval(inst, 1.0, [s]).env for s in s_grid]
    s_star = s_grid[int(np.argmin(envs))]
    assert s_star == pytest.approx(2.0, abs=1e-3)
    u_star = inst.h.prox(np.array([s_star]), 1.0)
    assert u_star[0] == pytest.approx(1.0, abs=1e-3)
    assert min(envs) == pytest.approx(-0.5, abs=1e-6)  # inf env = inf phi


# ---------------------------------------------------------------------------
# hypoconvex pairs

def test_hypoconvex_eval_consistent_with_raw_proxes():
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=0.5)
    gamma_eff, s = 1.2, np.array([0.73])
    scale = 1.0 - gamma_eff * inst.mu
    ev = dp.dce_eval(inst, gamma_eff / scale, s / scale)
    np.testing.assert_allclose(ev.u, inst.h.prox(s, gamma_eff), atol=1e-14)
    np.testing.assert_allclose(ev.v, inst.g.prox(s, gamma_eff), atol=1e-14)
    assert ev.env == pytest.approx(
        env_value_from_pair(inst, gamma_eff, s, ev.u, ev.v), abs=1e-13)
    assert ev.gamma_effective == pytest.approx(gamma_eff)


def test_hypoconvex_gradient_finite_differences(rng):
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=0.5)
    ok, worst, budget = check_gradient(
        inst, 1.5, [rng.standard_normal(1) * 2 for _ in range(20)])
    assert ok, worst


def test_dce_eval_rejects_bad_shift():
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=-1.0)
    with pytest.raises(ValueError):
        dp.dce_eval(inst, 2.0, [1.0])


# ---------------------------------------------------------------------------
# smooth machinery and the forward-backward connection

def test_backward_smooth_prox_linear():
    f = dp.linear_smooth([2.0, -1.0])
    np.testing.assert_allclose(dp.backward_smooth_prox(f, 0.7, [1.0, 1.0]),
                               [2.4, 0.3])


def test_backward_smooth_prox_quadratic():
    f = dp.quadratic_smooth(np.eye(2))
    np.testing.assert_allclose(dp.backward_smooth_prox(f, 0.5, [3.0, -1.0]),
                               [6.0, -2.0])


def test_backward_smooth_prox_random_spd(rng):
    q = rng.standard_normal((6, 6))
    q = q @ q.T / 6
    f = dp.quadratic_smooth(q)
    gamma = 0.9 / f.lipschitz
    s = rng.standard_normal(6)
    u = dp.backward_smooth_prox(f, gamma, s)
    np.testing.assert_allclose(u, np.linalg.solve(np.eye(6) - gamma * q, s),
                               atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_backward_quadratic_rejects_non_finite_input(bad):
    f = dp.quadratic_smooth(np.array([[1.5, 0.2], [0.2, 0.8]]))
    f.backward(np.array([1.0, 0.0]), 0.5)  # populate the cached inverse
    with pytest.raises(ValueError, match="infs or NaNs"):
        f.backward(np.array([1.0, bad]), 0.5)
    with pytest.raises(ValueError, match="infs or NaNs"):
        f.backward(np.array([bad, 0.0]), -0.5)


def test_backward_smooth_prox_fixed_point_path(rng):
    f = dp.SmoothFunction(value=lambda x: float(np.sum(np.cos(x))),
                          grad=lambda x: -np.sin(x), lipschitz=1.0)
    s = rng.standard_normal(4)
    u = dp.backward_smooth_prox(f, 0.6, s)
    res = np.linalg.norm(u - 0.6 * f.grad(u) - s)
    assert res <= 1e-12 * (1.0 + np.linalg.norm(s))
    with pytest.raises(ValueError):
        dp.backward_smooth_prox(f, 1.1, s)  # fixed point needs gamma*L < 1


def test_smooth_prox_function_matches_quadratic_atom(rng):
    q = np.array([[1.5, 0.2], [0.2, 0.8]])
    as_prox = dp.SmoothProxFunction(dp.quadratic_smooth(q))
    atom = dp.Quadratic(q)
    for _ in range(5):
        s = rng.standard_normal(2)
        np.testing.assert_allclose(as_prox.prox(s, 0.9), atom.prox(s, 0.9),
                                   atol=1e-10)


def test_fbe_value_examples():
    f = dp.quadratic_smooth(np.array([[1.0]]))
    # stationary point of f with g = 0: both corrections vanish
    assert dp.fbe_value(f, dp.Zero(), 0.5, [0.0]) == pytest.approx(0.0)
    assert dp.fbe_value(f, dp.Zero(), 0.5, [2.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dp.fbe_value(f, dp.Zero(), 1.0, [0.0])  # gamma >= 1/L


def test_dce_fbe_equivalence_zero_case(rng):
    f = dp.linear_smooth([0.0, 0.0])
    dev = dp.dce_fbe_equivalence_check(f, dp.Zero(), 0.5,
                                       [rng.standard_normal(2) for _ in range(10)])
    assert dev <= 1e-14


def test_dce_fbe_equivalence_l1(rng):
    f = dp.quadratic_smooth(np.array([[1.0]]))
    pts = [rng.standard_normal(1) * 3 for _ in range(100)]
    assert dp.dce_fbe_equivalence_check(f, dp.L1Norm(1.0), 0.5, pts) <= 1e-8


def test_dce_fbe_equivalence_spca(rng):
    spca, inst = dp.make_spca(20, seed=2)
    f = dp.negate_smooth(inst.smooth_h)
    gamma = 0.9 / spca.lam_max
    pts = [rng.standard_normal(20) for _ in range(30)]
    dev = dp.dce_fbe_equivalence_check(f, inst.g, gamma, pts)
    scale = 1.0 + max(abs(envelope_of_smooth_pair(f, inst.g, gamma, s)) for s in pts)
    assert dev <= 1e-8 * scale


def test_envelope_convexity_preserved_for_convex_smooth_part(rng):
    # convex f (concave smooth h): midpoint convexity of the envelope
    q = rng.standard_normal((6, 6))
    q = q @ q.T / 6
    f = dp.quadratic_smooth(q)
    g = dp.L1Ball(0.3)
    gamma = 0.9 / f.lipschitz
    env = lambda s: envelope_of_smooth_pair(f, g, gamma, s)
    for _ in range(200):
        s, s2 = rng.standard_normal(6) * 2, rng.standard_normal(6) * 2
        assert env(0.5 * (s + s2)) <= 0.5 * (env(s) + env(s2)) + 1e-10


def test_finite_difference_helper():
    grad = finite_difference_gradient(lambda x: float(x @ x), np.array([1.0, -2.0]),
                                      1e-6)
    np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-8)


def test_dc_value_extended_convention():
    assert dc_value(np.inf, np.inf) == np.inf
    assert dc_value(np.inf, 1.0) == np.inf
    assert dc_value(1.0, np.inf) == -np.inf
    assert dc_value(3.0, 1.0) == 2.0


def test_instance_dim_validation():
    with pytest.raises(ValueError):
        dp.DcInstance(g=dp.Linear([1.0, 2.0]), h=dp.Zero(), dim=3)
    inst = dp.DcInstance(g=dp.Linear([1.0, 2.0]), h=dp.Zero(), dim=2)
    assert inst.phi([1.0, 1.0]) == pytest.approx(3.0)
