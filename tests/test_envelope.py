import json
import tracemalloc

import numpy as np
import pytest

import dcprox as dp
import dcprox.cli as cli
from dcprox.checks import (
    check_fbe,
    check_gradient,
    check_sandwich,
    evaluate_points,
    finite_difference_gradient,
    run_instance_checks,
)
from dcprox.envelope import dc_value, env_value_from_pair
from dcprox.problems import find_synthetic, problem_from_json
from dcprox.prox import metric_half_sq
from dcprox.reports import Iterate
from dcprox.two_prox import _relaxed_steps
from oracles import (
    dce_fbe_equivalence_check,
    envelope_of_smooth_pair,
    fbe_value,
    moreau_value,
    negate_smooth,
    quadratic_smooth,
)


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
    assert isinstance(ev, Iterate)
    assert ev.u[0] == pytest.approx(-1.0)
    assert ev.v[0] == pytest.approx(0.0)
    assert ev.env == pytest.approx(0.5)
    assert ev.grad[0] == pytest.approx(-1.0)
    # eval invariants at gamma = 1: grad = (u-v)/gamma, residual = gamma*||grad||
    np.testing.assert_allclose(ev.grad, ev.u - ev.v)
    assert ev.residual == pytest.approx(np.linalg.norm(ev.grad))


def test_envelope_matches_moreau_difference(rng):
    inst = dp.DcInstance(g=dp.L1Ball(0.4), h=dp.Quadratic(np.eye(3) * 0.5), dim=3)
    for _ in range(5):
        s = rng.standard_normal(3)
        ev = dp.dce_eval(inst, 0.9, s)
        direct = moreau_value(inst.g, 0.9, s) - moreau_value(inst.h, 0.9, s)
        assert ev.env == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("name,inst,gamma,s0", catalogue_dc())
def test_gradient_matches_finite_differences(name, inst, gamma, s0, rng):
    points = [s0 + rng.standard_normal(inst.dim) for _ in range(20)]
    ok, worst, budget = check_gradient(inst, gamma, evaluate_points(inst, gamma, points))
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
    ok, worst, _ = check_sandwich(inst, gamma, evaluate_points(inst, gamma, points))
    assert ok, f"violation {worst}"


def test_sandwich_allows_infinite_side():
    # u = prox of a linear h can leave the ball, so phi(u) = +inf is legal
    inst = dp.DcInstance(g=dp.L1Ball(0.5), h=dp.Linear([1.0]), dim=1)
    lower, upper = dp.sandwich_bounds(inst, 5.0, [3.0])
    assert upper == np.inf
    assert lower <= dp.dce_eval(inst, 5.0, [3.0]).env


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

CHECKED = [{"kind": "synthetic", "name": c.name}
           for c in dp.synthetic_catalogue() if c.dc is not None] + [{"kind": "spca", "n": 30}]


@pytest.mark.parametrize("doc", CHECKED, ids=lambda doc: doc.get("name", "spca-30"))
def test_dce_eval_is_what_the_solvers_evaluate(doc):
    # dcprox check's instance, start and stepsize; the solvers' evaluate
    inst, s0, gamma, _ = cli._problem("dce", *problem_from_json(json.dumps(doc)))
    _, _, evaluate, _ = _relaxed_steps(inst, dp.TwoProxConfig(gamma=gamma))
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = s0 + 2.0 * rng.standard_normal(inst.dim)
        ev, it = dp.dce_eval(inst, gamma, s), evaluate(s)
        assert np.array_equal(ev.u, it.u) and np.array_equal(ev.v, it.v)
        assert float(ev.env).hex() == float(it.env).hex()
        assert float(ev.residual).hex() == float(it.residual).hex()
        assert np.array_equal(ev.grad, it.gaps[0] / gamma)


def test_hypoconvex_sandwich_holds_with_the_scaled_gap():
    # abs-hypo-1d (mu = 0.5, gamma = 1): each prox objective is only
    # (1 - gamma*mu)/gamma-strongly convex, so the bracket's gap is scaled
    c = find_synthetic("abs-hypo-1d")
    inst, gamma = c.dc, c.gamma
    rng = np.random.default_rng(3)
    points = [c.s0 + 4.0 * rng.standard_normal(1) for _ in range(2000)]
    evals = evaluate_points(inst, gamma, points)
    ok, worst, _ = check_sandwich(inst, gamma, evals)
    assert ok, f"violation {worst}"
    # the unscaled gap, right for convex pairs only, does not bracket it
    unscaled = max(inst.phi(ev.v) + metric_half_sq(ev.v - ev.u, gamma) - ev.env
                   for ev in evals)
    assert unscaled > 1.0, unscaled


def test_hypoconvex_gradient_finite_differences(rng):
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=0.5)
    points = [rng.standard_normal(1) * 2 for _ in range(20)]
    ok, worst, budget = check_gradient(inst, 1.5, evaluate_points(inst, 1.5, points))
    assert ok, worst


def test_dce_eval_rejects_gamma_mu_of_one():
    inst = dp.DcInstance(g=dp.L1Norm(), h=dp.ScaledSquare(-0.5), dim=1, mu=0.5)
    for gamma in (2.0, 3.0):
        with pytest.raises(ValueError, match="gamma\\*mu must stay below 1"):
            dp.dce_eval(inst, gamma, [1.0])
    assert dp.dce_eval(inst, 1.9, [1.0]).residual > 0


# ---------------------------------------------------------------------------
# smooth machinery and the forward-backward connection

def test_backward_smooth_prox_linear():
    # the catalogue's closed form for h(x) = x1 + 2*x2
    f = find_synthetic("separable-2d").dc.smooth_h
    u = f.backward(np.array([1.0, 1.0]), 0.7)
    np.testing.assert_allclose(u, [1.7, 2.4])
    np.testing.assert_allclose(u - 0.7 * f.grad(u), [1.0, 1.0])


def test_backward_smooth_prox_quadratic():
    f = dp.Quadratic(np.eye(2))
    np.testing.assert_allclose(f.backward(np.array([3.0, -1.0]), 0.5), [6.0, -2.0])


def test_quadratic_smooth_rejects_nonsymmetric():
    # 0.5 x'Qx has gradient (Q + Q')x/2, not Qx
    with pytest.raises(ValueError, match="symmetric"):
        dp.Quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_backward_smooth_prox_random_spd(rng):
    q = rng.standard_normal((6, 6))
    q = q @ q.T / 6
    f = quadratic_smooth(q)
    gamma = 0.9 / f.lipschitz
    s = rng.standard_normal(6)
    u = f.backward(s, gamma)
    np.testing.assert_allclose(u, np.linalg.solve(np.eye(6) - gamma * q, s),
                               atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_backward_quadratic_rejects_non_finite_input(bad):
    f = dp.Quadratic(np.array([[1.5, 0.2], [0.2, 0.8]]))
    f.backward(np.array([1.0, 0.0]), 0.5)  # populate the cached inverse
    with pytest.raises(ValueError, match="infs or NaNs"):
        f.backward(np.array([1.0, bad]), 0.5)
    with pytest.raises(ValueError, match="infs or NaNs"):
        f.backward(np.array([bad, 0.0]), -0.5)


def test_backward_quadratic_keeps_one_inverse(rng):
    # a stepsize sweep must not leave one n x n inverse behind per stepsize
    n = 400
    q = rng.standard_normal((n, n))
    q = q @ q.T / n
    f = quadratic_smooth(q)
    s = rng.standard_normal(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 11):
            f.backward(s, 0.05 * k / f.lipschitz)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    inverse_bytes = n * n * 8
    assert inverse_bytes <= held < 2 * inverse_bytes


def test_negated_backward_reuses_the_prox_inverse(rng):
    # -h's backward solve at gamma, which check_fbe takes as h's backward
    # solve at -gamma, is h's prox at gamma, so it reads the inverse of
    # I + gamma*Sigma that the prox cached: one per signed stepsize
    n = 60
    spca, inst = dp.make_spca(n, seed=0)
    gamma = 0.9 / spca.lam_max
    s = rng.standard_normal(n)
    w = inst.h.prox(s, gamma)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u = inst.smooth_h.backward(s, -gamma)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(u, w)
    assert peak < n * n * 8


def test_smooth_prox_function_matches_quadratic_atom(rng):
    # the prox of a convex smooth f is the backward solve of -f
    q = np.array([[1.5, 0.2], [0.2, 0.8]])
    neg = negate_smooth(quadratic_smooth(q))
    atom = dp.Quadratic(q)
    for _ in range(5):
        s = rng.standard_normal(2)
        np.testing.assert_allclose(neg.backward(s, 0.9), atom.prox(s, 0.9), atol=1e-10)


def test_fbe_value_examples():
    f = quadratic_smooth(np.array([[1.0]]))
    # stationary point of f with g = 0: both corrections vanish
    assert fbe_value(f, dp.Zero(), 0.5, [0.0]) == pytest.approx(0.0)
    assert fbe_value(f, dp.Zero(), 0.5, [2.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fbe_value(f, dp.Zero(), 1.0, [0.0])  # gamma >= 1/L


def test_dce_fbe_equivalence_zero_case(rng):
    f = quadratic_smooth(np.zeros((2, 2)))
    dev = dce_fbe_equivalence_check(f, dp.Zero(), 0.5,
                                    [rng.standard_normal(2) for _ in range(10)])
    assert dev <= 1e-14


def test_dce_fbe_equivalence_l1(rng):
    f = quadratic_smooth(np.array([[1.0]]))
    pts = [rng.standard_normal(1) * 3 for _ in range(100)]
    assert dce_fbe_equivalence_check(f, dp.L1Norm(1.0), 0.5, pts) <= 1e-8


def test_dce_fbe_equivalence_spca(rng):
    spca, inst = dp.make_spca(20, seed=2)
    f = negate_smooth(inst.smooth_h)
    gamma = 0.9 / spca.lam_max
    pts = [rng.standard_normal(20) for _ in range(30)]
    dev = dce_fbe_equivalence_check(f, inst.g, gamma, pts)
    scale = 1.0 + max(abs(envelope_of_smooth_pair(f, inst.g, gamma, s)) for s in pts)
    assert dev <= 1e-8 * scale


def fbe_cases():
    """(name, instance, start, stepsize) of every two-term synthetic entry and
    of spca n=30 and n=50, at the stepsize ``dcprox check`` runs them with."""
    cases = [(c.name, c.dc, c.s0, c.gamma)
             for c in dp.synthetic_catalogue() if c.dc is not None]
    for n in (30, 50):
        spca, inst = dp.make_spca(n, seed=0)
        cases.append((f"spca-{n}", inst, spca.s0, 0.9 / spca.lam_max))
    return cases


@pytest.mark.parametrize("name,inst,s0,gamma", fbe_cases())
def test_check_fbe_equals_the_generic_reference(name, inst, s0, gamma, rng):
    # check_fbe writes the generic FBE identity out for the pair (g, h),
    # with -h in place of f; negation is exact, so the floats agree
    points = [s0 + rng.standard_normal(inst.dim) for _ in range(100)]
    ok, measured, budget = check_fbe(inst, gamma, evaluate_points(inst, gamma, points))
    assert ok
    assert measured == dce_fbe_equivalence_check(negate_smooth(inst.smooth_h), inst.g,
                                                 gamma, points)


def count_quadratic_calls(monkeypatch):
    """Counts of ``Quadratic.prox`` and ``Quadratic.backward`` calls, live."""
    calls = {"prox": 0, "backward": 0}
    for name in calls:
        original = getattr(dp.Quadratic, name)

        def counted(self, *args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(dp.Quadratic, name, counted)
    return calls


def test_checks_evaluate_each_point_once(rng, monkeypatch):
    # one prox_h per point to evaluate it, none more for the sandwich check,
    # one backward solve per point for the FBE check
    calls = count_quadratic_calls(monkeypatch)
    spca, inst = dp.make_spca(30, seed=1)
    gamma = 0.9 / spca.lam_max
    points = [spca.s0 + rng.standard_normal(30) for _ in range(20)]
    evals = evaluate_points(inst, gamma, points)
    assert check_sandwich(inst, gamma, evals)[0]
    assert check_fbe(inst, gamma, evals)[0]
    assert calls == {"prox": 20, "backward": 20}


def test_battery_evaluates_each_point_once_at_its_stepsize(rng, monkeypatch):
    # gamma = 0.9/lambda_max < 1/L, so the FBE check runs at gamma too and
    # reuses the gradient check's evaluations, as does the sandwich check:
    # 20 points, 2 * 30 finite-difference evaluations each, 50 descent
    # iterations; no prox_h beyond those
    calls = count_quadratic_calls(monkeypatch)
    spca, inst = dp.make_spca(30, seed=1)
    results = run_instance_checks(inst, 0.9 / spca.lam_max, spca.s0, rng)
    assert [ok for _, ok, _, _ in results] == [True] * 4
    assert calls == {"prox": 20 * (1 + 2 * 30) + 50, "backward": 20}


def test_envelope_convexity_preserved_for_convex_smooth_part(rng):
    # convex f (concave smooth h): midpoint convexity of the envelope
    q = rng.standard_normal((6, 6))
    q = q @ q.T / 6
    f = quadratic_smooth(q)
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
