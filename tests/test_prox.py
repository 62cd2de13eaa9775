import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import dcprox as dp
from dcprox.prox import CapabilityError

SIGMA3 = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.0]])

ATOMS3 = [
    ("zero", dp.Zero()),
    ("zero-indicator", dp.ZeroIndicator()),
    ("linear", dp.Linear([0.5, -1.0, 2.0])),
    ("l1", dp.L1Norm(0.8)),
    ("linf-ball", dp.LinfBall(1.0)),
    ("unit-ball", dp.UnitBall()),
    ("l1-ball", dp.L1Ball(0.7)),
    ("scaled-square", dp.ScaledSquare(1.3)),
    ("quadratic", dp.Quadratic(SIGMA3)),
    ("blocks", dp.BlockSeparable([(dp.L1Norm(1.0), 2), (dp.ScaledSquare(0.5), 1)])),
]

vec3 = hnp.arrays(np.float64, 3, elements=st.floats(-50, 50))
steps = st.floats(0.05, 20.0)


def grid_prox_1d_fast(value_fn, x, gamma, lo=-20.0, hi=20.0, n=400_001):
    """Brute-force 1-D Moreau value by dense grid minimization."""
    w = np.linspace(lo, hi, n)
    vals = value_fn(w) + (w - x) ** 2 / (2 * gamma)
    i = int(np.argmin(vals))
    return w[i], float(vals[i])


# ---------------------------------------------------------------------------
# closed-form building blocks

def test_soft_threshold_examples():
    np.testing.assert_allclose(dp.soft_threshold([3.0, -0.4, 0.0], 0.5),
                               [2.5, 0.0, 0.0])
    # tie at |s| = tau maps to exactly zero
    assert dp.soft_threshold([0.5, -0.5], 0.5).tolist() == [0.0, 0.0]


@given(vec3, st.floats(0.0, 5.0))
def test_soft_threshold_shrinks(x, tau):
    out = dp.soft_threshold(x, tau)
    assert np.all(np.abs(out) <= np.maximum(np.abs(x) - tau, 0.0) + 1e-12)
    assert np.all(out * x >= 0.0)


def test_prox_l1_ball_examples():
    np.testing.assert_allclose(dp.prox_l1_ball([0.0, 0.0], 0.3), [0.0, 0.0])
    np.testing.assert_allclose(dp.prox_l1_ball([2.0, 0.0], 0.5), [1.0, 0.0])


@given(vec3, st.floats(0.0, 3.0))
def test_prox_l1_ball_is_the_composite_minimizer(x, tau):
    # candidate must beat random feasible perturbations on the prox objective
    p = dp.prox_l1_ball(x, tau)
    obj = lambda w: tau * np.sum(np.abs(w)) + 0.5 * np.sum((w - x) ** 2)
    assert np.linalg.norm(p) <= 1.0 + 1e-12
    best = obj(p)
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = p + 0.3 * rng.standard_normal(3)
        z = dp.project_unit_ball(z)
        assert obj(z) >= best - 1e-9


def test_prox_quadratic_identity_sigma():
    s = np.array([2.0, -4.0])
    np.testing.assert_allclose(dp.prox_quadratic(np.eye(2), 1.0, s), s / 2.0)


def test_quadratic_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        dp.Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_quadratic_cache_survives_stepsize_change():
    atom = dp.Quadratic(SIGMA3, gamma=0.7)
    s = np.array([1.0, -2.0, 0.5])
    for gamma in (0.7, 0.2, 0.7):
        expected = np.linalg.solve(np.eye(3) + gamma * SIGMA3, s)
        np.testing.assert_allclose(atom.prox(s, gamma), expected, atol=1e-12)


@pytest.mark.parametrize("scale", [0.9, 10.0, 1e3])
def test_quadratic_prox_matches_dense_solve(rng, scale):
    # scale = gamma * lambda_max, so I + gamma*Sigma has condition up to 1 + 1e3
    a = rng.standard_normal((80, 40))
    sigma = a.T @ a / 40
    gamma = scale / np.linalg.eigvalsh(sigma)[-1]
    entries = rng.uniform(0.1, 1.0, 40) * gamma
    atom = dp.Quadratic(sigma)
    for _ in range(3):
        x = rng.standard_normal(40)
        tol = 1e-12 * np.linalg.norm(x)
        np.testing.assert_allclose(
            atom.prox(x, gamma), np.linalg.solve(np.eye(40) + gamma * sigma, x),
            rtol=0, atol=tol)
        np.testing.assert_allclose(
            atom.prox_diag(x, entries),
            np.linalg.solve(np.eye(40) + np.diag(entries) @ sigma, x),
            rtol=0, atol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quadratic_prox_rejects_non_finite_input(bad):
    atom = dp.Quadratic(SIGMA3, gamma=0.7)
    x = np.array([1.0, bad, 0.5])
    with pytest.raises(ValueError, match="infs or NaNs"):
        atom.prox(x, 0.7)
    with pytest.raises(ValueError, match="infs or NaNs"):
        atom.prox_diag(x, np.array([0.5, 1.5, 2.0]))


# ---------------------------------------------------------------------------
# shared atom properties

@pytest.mark.parametrize("name,atom", ATOMS3)
def test_firm_nonexpansiveness(name, atom, rng):
    # <x - x', s - s'> brackets ||x - x'||^2 below and ||s - s'||^2 above
    for _ in range(120):
        gamma = float(rng.uniform(0.05, 5.0))
        s = rng.standard_normal(3) * 3
        s2 = rng.standard_normal(3) * 3
        x = atom.prox(s, gamma)
        x2 = atom.prox(s2, gamma)
        inner = float((x - x2) @ (s - s2))
        assert float((x - x2) @ (x - x2)) <= inner + 1e-9
        assert inner <= float((s - s2) @ (s - s2)) + 1e-9


@pytest.mark.parametrize("name,atom", ATOMS3)
def test_prox_characterization_subgradient(name, atom, rng):
    # (s - x)/gamma is a subgradient of the atom at x = prox(s, gamma)
    for _ in range(60):
        gamma = float(rng.uniform(0.1, 3.0))
        s = rng.standard_normal(3) * 2
        x = atom.prox(s, gamma)
        fx = atom.value(x)
        assert np.isfinite(fx)
        xi = (s - x) / gamma
        for _ in range(10):
            z = x + rng.standard_normal(3)
            fz = atom.value(z)
            if fz == np.inf:
                continue
            assert fz >= fx + float(xi @ (z - x)) - 1e-9


@pytest.mark.parametrize("name,atom", ATOMS3)
def test_value_at_prox_matches_value(name, atom, rng):
    for _ in range(20):
        gamma = float(rng.uniform(0.1, 3.0))
        s = rng.standard_normal(3)
        x = atom.prox(s, gamma)
        assert atom.value_at_prox(x, s, gamma) == pytest.approx(atom.value(x), abs=1e-10)


def test_prox_rejects_nonpositive_gamma():
    for atom in (dp.L1Norm(), dp.Zero(), dp.Quadratic(SIGMA3)):
        with pytest.raises(ValueError):
            atom.prox(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            atom.prox(np.zeros(3), -1.0)


def test_infinite_stepsize_rejected():
    for atom in (dp.L1Norm(), dp.Zero(), dp.Quadratic(SIGMA3)):
        with pytest.raises(ValueError, match="finite"):
            atom.prox(np.zeros(3), np.inf)
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        dp.TwoProxConfig(gamma=np.inf).validate(0.0)


# ---------------------------------------------------------------------------
# Moreau envelope operations

def test_moreau_value_examples():
    assert dp.moreau_value(dp.Zero(), 1.0, [3.0, 4.0]) == 0.0
    assert dp.moreau_value(dp.ScaledSquare(1.0), 1.0, [2.0]) == pytest.approx(1.0)
    assert dp.moreau_value(dp.UnitBall(), 1.0, [3.0, 0.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        dp.moreau_value(dp.Zero(), -0.5, [1.0])


def test_moreau_value_below_function_value(rng):
    for name, atom in ATOMS3:
        x = atom.prox(rng.standard_normal(3), 1.0)  # a point in the domain
        assert dp.moreau_value(atom, 0.7, x) <= atom.value(x) + 1e-12


def test_moreau_value_matches_grid_1d():
    cases = [(dp.L1Norm(1.0), lambda w: np.abs(w)),
             (dp.ScaledSquare(0.5), lambda w: 0.25 * w ** 2),
             (dp.LinfBall(1.0), lambda w: np.where(np.abs(w) <= 1.0, 0.0, np.inf))]
    for atom, value_fn in cases:
        for x, gamma in [(2.0, 1.0), (-0.7, 0.4), (3.5, 2.0)]:
            _, grid_val = grid_prox_1d_fast(value_fn, x, gamma)
            assert dp.moreau_value(atom, gamma, [x]) == pytest.approx(grid_val, abs=1e-8)


def test_moreau_gradient_examples(rng):
    assert np.all(dp.moreau_gradient(dp.Zero(), 2.0, [5.0, -1.0]) == 0.0)
    assert dp.moreau_gradient(dp.ScaledSquare(1.0), 1.0, [2.0])[0] == pytest.approx(1.0)
    # finite differences on a random 5-d l1 envelope
    atom = dp.L1Norm(1.0)
    x = rng.standard_normal(5) * 2
    g = dp.moreau_gradient(atom, 0.8, x)
    fd = np.empty(5)
    for i in range(5):
        e = np.zeros(5)
        e[i] = 1e-6
        fd[i] = (dp.moreau_value(atom, 0.8, x + e) - dp.moreau_value(atom, 0.8, x - e)) / 2e-6
    assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("name,atom", ATOMS3)
def test_moreau_gradient_lipschitz(name, atom, rng):
    gamma = 0.7
    for _ in range(50):
        s, s2 = rng.standard_normal(3), rng.standard_normal(3)
        dg = dp.moreau_gradient(atom, gamma, s) - dp.moreau_gradient(atom, gamma, s2)
        assert np.linalg.norm(dg) <= np.linalg.norm(s - s2) / gamma + 1e-9


# ---------------------------------------------------------------------------
# shifted prox and conjugate prox

def test_prox_shifted_examples():
    s = np.array([1.3, -0.2])
    np.testing.assert_allclose(dp.prox_shifted(dp.L1Norm(), 0.0, 0.8, s),
                               dp.L1Norm().prox(s, 0.8))
    assert dp.prox_shifted(dp.Zero(), 1.0, 1.0, [2.0])[0] == pytest.approx(1.0)
    assert dp.prox_shifted(dp.L1Norm(), 1.0, 1.0, [3.0])[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dp.prox_shifted(dp.Zero(), -2.0, 1.0, [1.0])  # 1 + gamma*mu < 0
    with pytest.raises(ValueError):
        dp.prox_shifted(dp.Zero(), -1.0, 1.0, [1.0])  # boundary


@given(st.floats(-0.9, 3.0), steps, st.floats(-5, 5))
def test_prox_shifted_matches_grid(mu, gamma, x):
    if 1.0 + gamma * mu < 0.2:
        return  # keep the rescaled point inside the grid window
    p = dp.prox_shifted(dp.L1Norm(), mu, gamma, [x])[0]
    w = np.linspace(-30, 30, 600_001)
    vals = np.abs(w) + 0.5 * mu * w ** 2 + (w - x) ** 2 / (2 * gamma)
    assert abs(p) <= 25.0
    assert p == pytest.approx(w[np.argmin(vals)], abs=1.5e-4)


def test_prox_conjugate_examples():
    assert np.all(dp.prox_conjugate(dp.Zero(), 2.0, [1.0, -3.0]) == 0.0)
    t = np.array([0.3, -2.0])
    np.testing.assert_allclose(dp.prox_conjugate(dp.ZeroIndicator(), 2.0, t), t)
    assert dp.prox_conjugate(dp.ScaledSquare(1.0), 1.0, [4.0])[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        dp.prox_conjugate(dp.L1Norm(), 0.0, [1.0])


@given(vec3, st.floats(0.2, 5.0))
def test_moreau_identity_against_independent_conjugate(t, delta):
    # conj of the l1 norm is the sup-norm ball indicator, proxed by clipping
    lhs = dp.prox_conjugate(dp.L1Norm(1.0), delta, t)
    rhs = np.clip(t, -1.0, 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conjugate_values():
    assert dp.L1Norm(1.0).conjugate_value([0.5, -1.0]) == 0.0
    assert dp.L1Norm(1.0).conjugate_value([1.5, 0.0]) == np.inf
    assert dp.ScaledSquare(2.0).conjugate_value([2.0]) == pytest.approx(1.0)
    sig = dp.Quadratic(SIGMA3)
    y = np.array([0.4, -0.1, 0.2])
    assert sig.conjugate_value(y) == pytest.approx(0.5 * y @ np.linalg.solve(SIGMA3, y))
    with pytest.raises(CapabilityError):
        dp.UnitBall().conjugate_value([0.0])


# ---------------------------------------------------------------------------
# diagonal metric

def test_prox_diag_uniform_reduces_to_scalar():
    entries = np.full(3, 0.8)
    for name, atom in ATOMS3:
        if not atom.supports_diag:
            continue
        s = np.array([1.2, -3.0, 0.4])
        np.testing.assert_array_equal(atom.prox_diag(s, entries), atom.prox(s, 0.8))


def test_prox_diag_l1_example():
    out = dp.prox_diag(dp.L1Norm(1.0), [1.0, 2.0], [3.0, 3.0])
    np.testing.assert_allclose(out, [2.0, 1.0])


def test_prox_diag_quadratic_matches_dense_solve(rng):
    atom = dp.Quadratic(SIGMA3)
    entries = np.array([0.5, 1.5, 2.0])
    x = rng.standard_normal(3)
    w = atom.prox_diag(x, entries)
    expected = np.linalg.solve(np.eye(3) + np.diag(entries) @ SIGMA3, x)
    np.testing.assert_allclose(w, expected, atol=1e-10)
    # optimality: x in w + Gamma * grad
    np.testing.assert_allclose(w + entries * (SIGMA3 @ w), x, atol=1e-10)


def test_prox_diag_capability_errors():
    with pytest.raises(CapabilityError):
        dp.prox_diag(dp.UnitBall(), [1.0, 2.0], [3.0, 3.0])
    with pytest.raises(ValueError):
        dp.prox_diag(dp.L1Norm(), [1.0, -2.0], [3.0, 3.0])
    blocks = dp.BlockSeparable([(dp.UnitBall(), 2), (dp.L1Norm(), 1)])
    # uniform on the ball block is fine, nonuniform is not
    out = blocks.prox_diag(np.array([3.0, 0.0, 2.0]), np.array([1.0, 1.0, 0.5]))
    np.testing.assert_allclose(out, [1.0, 0.0, 1.5])
    with pytest.raises(CapabilityError):
        blocks.prox_diag(np.array([3.0, 0.0, 2.0]), np.array([1.0, 2.0, 0.5]))


def test_block_separable_value_and_dim():
    blocks = dp.BlockSeparable([(dp.L1Norm(1.0), 2), (dp.ScaledSquare(2.0), 1)])
    assert blocks.dim == 3
    assert blocks.value([1.0, -2.0, 3.0]) == pytest.approx(3.0 + 9.0)
    with pytest.raises(ValueError):
        blocks.value([1.0, 2.0])


def test_extended_value_atoms():
    assert dp.UnitBall().value([2.0, 0.0]) == np.inf
    assert dp.L1Ball(0.5).value([0.3, 0.3]) == pytest.approx(0.3)
    assert dp.L1Ball(0.5).value([1.2, 0.0]) == np.inf
    assert dp.ZeroIndicator().value([0.0, 0.0]) == 0.0
    assert dp.ZeroIndicator().value([0.1, 0.0]) == np.inf
