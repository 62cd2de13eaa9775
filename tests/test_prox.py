import os
import subprocess
import sys
import tracemalloc
import warnings
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.blas import dsymv

import dcprox as dp
from dcprox.checks import finite_difference_gradient
from dcprox.prox import CapabilityError, _identity_plus, _spd_inverse, metric_half_sq
from oracles import DIAG_ATOMS, ConjugatePart, moreau_value, prox_conjugate_scaled, prox_diag

SIGMA3 = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.0]])

# The ball atoms are L1Ball with kappa = 0: on its own (the Euclidean unit
# ball) and as a sum of 1-d blocks (the sup-norm unit ball). "l1-ball-heavy"
# maps most of the sampled points to the origin.
ATOMS3 = [
    ("zero", dp.Zero()),
    ("l1-ball-heavy", dp.L1Ball(4.0)),
    ("linear", dp.Linear([0.5, -1.0, 2.0])),
    ("l1", dp.L1Norm(0.8)),
    ("linf-ball", dp.BlockSeparable([(dp.L1Ball(0.0), 1)] * 3)),
    ("unit-ball", dp.L1Ball(0.0)),
    ("l1-ball", dp.L1Ball(0.7)),
    ("scaled-square", dp.ScaledSquare(1.3)),
    ("quadratic", dp.Quadratic(SIGMA3)),
    ("blocks", dp.BlockSeparable([(dp.L1Norm(1.0), 2), (dp.ScaledSquare(0.5), 1)])),
]

vec3 = hnp.arrays(np.float64, 3, elements=st.floats(-50, 50))


def grid_prox_1d_fast(value_fn, x, gamma, lo=-20.0, hi=20.0, n=400_001):
    """Brute-force 1-D Moreau value by dense grid minimization."""
    w = np.linspace(lo, hi, n)
    vals = value_fn(w) + (w - x) ** 2 / (2 * gamma)
    i = int(np.argmin(vals))
    return w[i], float(vals[i])


def envelope_grad(atom, gamma, x):
    """Gradient of the Moreau envelope of ``atom``: (x - prox(x, gamma))/gamma."""
    x = np.asarray(x, dtype=float)
    return (x - atom.prox(x, gamma)) / gamma


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
        z = dp.prox_l1_ball(z, 0.0)
        assert obj(z) >= best - 1e-9


def test_prox_quadratic_identity_sigma():
    s = np.array([2.0, -4.0])
    np.testing.assert_allclose(dp.Quadratic(np.eye(2)).prox(s, 1.0), s / 2.0)


def test_quadratic_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        dp.Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_quadratic_rejects_an_empty_sigma():
    with pytest.raises(ValueError, match="Sigma must not be empty"):
        dp.Quadratic(np.zeros((0, 0)))


def test_quadratic_cache_survives_stepsize_change():
    atom = dp.Quadratic(SIGMA3)
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
            prox_diag(atom, x, entries),
            np.linalg.solve(np.eye(40) + np.diag(entries) @ sigma, x),
            rtol=0, atol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quadratic_prox_rejects_non_finite_input(bad):
    atom = dp.Quadratic(SIGMA3)
    x = np.array([1.0, bad, 0.5])
    with pytest.raises(ValueError, match="infs or NaNs"):
        atom.prox(x, 0.7)
    with pytest.raises(ValueError, match="infs or NaNs"):
        prox_diag(atom, x, np.array([0.5, 1.5, 2.0]))


@pytest.mark.parametrize("n", [1, 2, 7, 130])
def test_symmetric_products_match_dense(n, rng):
    # every product with Sigma, Q or a cached inverse reads one triangle
    b = rng.standard_normal((n, n + 3))
    sigma = b @ b.T / (n + 3)
    gamma = 1.0 / max(np.linalg.eigvalsh(sigma)[-1], 1.0)
    entries = gamma * np.linspace(0.5, 1.5, n)  # non-uniform from n = 2 on
    x = rng.standard_normal(n)
    eye = np.eye(n)

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=0,
                                   atol=1e-13 * np.linalg.norm(expected))

    atom = dp.Quadratic(sigma)
    close(atom.prox(x, gamma), np.linalg.solve(eye + gamma * sigma, x))
    close(prox_diag(atom, x, entries),
          np.linalg.solve(eye + np.diag(entries) @ sigma, x))
    close(atom.value(x), 0.5 * x @ (sigma @ x))
    close(atom.grad(x), sigma @ x)
    for step in (0.5 * gamma, -0.5 * gamma):  # check_fbe passes -gamma
        close(atom.backward(x, step), np.linalg.solve(eye - step * sigma, x))


def test_symmetric_product_rejects_wrong_length():
    # BLAS would read the first 3 entries of a longer vector
    with pytest.raises(ValueError, match="shape mismatch"):
        dp.Quadratic(SIGMA3).prox(np.ones(4), 0.5)
    with pytest.raises(ValueError, match="shape mismatch"):
        dp.Quadratic(SIGMA3).grad(np.ones(2))


@pytest.mark.parametrize("path", ["prox", "value", "grad", "backward"])
def test_symmetric_product_copies_no_matrix(path, rng):
    # a C-ordered matrix handed to BLAS is copied on every call (n^2 * 8
    # bytes); the one-triangle product must hand over the Fortran-ordered view
    n = 400
    b = rng.standard_normal((n, n))
    sigma = b @ b.T / n
    atom = dp.Quadratic(sigma)
    call = {"prox": lambda x: atom.prox(x, 0.5),
            "value": atom.value,
            "grad": atom.grad,
            "backward": lambda x: atom.backward(x, -0.5)}[path]
    x = rng.standard_normal(n)
    call(x)  # warm-up: builds the cached inverse
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("scale", [0.7, -0.1])
def test_identity_plus_matches_the_eye_form_bit_for_bit(scale):
    # -0.1 times SIGMA3's zeros gives -0.0, where eye's off-diagonal +0.0
    # added to it gives +0.0
    out = _identity_plus(scale, SIGMA3)
    assert out.flags.f_contiguous
    assert out.tobytes(order="C") == (np.eye(3) + scale * SIGMA3).tobytes()


@pytest.mark.parametrize("path", ["prox", "backward"])
def test_first_inverse_takes_one_matrix_buffer(path, rng):
    # I +- gamma*Sigma is built in one buffer that LAPACK inverts in place;
    # np.eye, the scaled matrix or a LAPACK-side copy would each add n^2 * 8
    # bytes
    n = 400
    b = rng.standard_normal((n, n))
    sigma = b @ b.T / n
    atom = dp.Quadratic(sigma)
    call = {"prox": lambda x: atom.prox(x, 0.5),
            "backward": lambda x: atom.backward(x, -0.5)}[path]
    x = rng.standard_normal(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


# ---------------------------------------------------------------------------
# the BLAS/LAPACK kernels, bound without the scipy.linalg package

@pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 130, 300, 1000])
def test_spd_inverse_is_bit_equal_to_scipy_inv(n):
    # scipy.linalg.inv(assume_a="pos") makes the same LAPACK calls; scipy is
    # the oracle here, imported by the test only
    from scipy.linalg import inv
    b = np.random.default_rng(n).standard_normal((n, 2 * n))
    sigma = b @ b.T
    lam = np.linalg.eigvalsh(sigma)[-1]
    for t in (0.9 / lam, -0.45 / lam, 2.0):
        for order in "FC":
            mat = np.array(_identity_plus(t, sigma), order=order)
            expected = inv(mat.copy(order=order), overwrite_a=True, assume_a="pos")
            got = _spd_inverse(mat)
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), (t, order)


def test_spd_inverse_error_cases():
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        _spd_inverse(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        _spd_inverse(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        _spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3 and -1
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        inverse = _spd_inverse(np.diag([1.0, 1e-17]))
    assert inverse[1, 1] == pytest.approx(1e17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _spd_inverse(np.diag([1.0, 1e-15]))  # rcond 1e-15, above machine epsilon


def test_finite_entries_whose_norm_overflows_are_inverted():
    # the 1-norm's column sums overflow to inf; the elementwise test then
    # finds every entry finite, and the inverse is scipy's, warning included
    from scipy.linalg import inv
    mat = np.array([[1.5e308, 0.5e308], [0.5e308, 1.5e308]])
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        got = _spd_inverse(mat.copy())
    with pytest.warns(RuntimeWarning):  # scipy's LinAlgWarning
        expected = inv(mat, assume_a="pos")
    assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_kernels_are_the_scipy_linalg_objects():
    import scipy.linalg.blas
    import scipy.linalg.lapack

    from dcprox import kernels, problems, prox
    for name in ("ddot", "dsymv", "dsyrk"):
        assert getattr(scipy.linalg.blas, name) is getattr(kernels, name)
    for name in ("dpotrf", "dpotri", "dpocon", "dlange"):
        assert getattr(scipy.linalg.lapack, name) is getattr(kernels, name)
    assert prox.ddot is kernels.ddot and prox.dsymv is kernels.dsymv
    assert problems.dsyrk is kernels.dsyrk


def _child(code):
    """Run ``code`` in a fresh interpreter that imports this dcprox."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dp.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_leaves_the_scipy_linalg_package_unloaded():
    child = _child("import sys, dcprox.cli\n"
                   "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["['scipy.linalg._fblas',", "'scipy.linalg._flapack']"]


def test_solve_after_scipy_linalg_is_imported(tmp_path):
    child = _child("import scipy.linalg, sys\n"
                   "from dcprox import cli, kernels\n"
                   "assert kernels.dsymv is scipy.linalg.blas.dsymv\n"
                   f"sys.exit(cli.main(['solve', '{{\"kind\": \"spca\", \"n\": 12}}', "
                   f"'--solver', 'dce-lbfgs', '--out', {str(tmp_path / 'x')!r}]))")
    assert child.returncode == 0, child.stderr


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
    # the value term of the envelope at a prox point is the value there
    for _ in range(20):
        gamma = float(rng.uniform(0.1, 3.0))
        s = rng.standard_normal(3)
        x = atom.prox(s, gamma)
        value = atom.envelope_at_prox(x, s, gamma) - metric_half_sq(x - s, gamma)
        assert value == pytest.approx(atom.value(x), abs=1e-10)
        if isinstance(atom, dp.Quadratic):
            assert atom.value_at_prox(x, s, gamma) == pytest.approx(atom.value(x),
                                                                    abs=1e-10)


# every atom whose prox claims to be affine, with the stepsize bound of its
# prox: run_lbfgs reuses one prox_h across a linesearch on that claim
AFFINE = [
    ("zero", dp.Zero(), 20.0),
    ("linear", dp.Linear([0.5, -1.0, 2.0]), 20.0),
    ("scaled-square", dp.ScaledSquare(1.3), 20.0),
    ("hypoconvex-square", dp.ScaledSquare(-0.5), 2.0),  # needs 1 - gamma/2 > 0
    ("quadratic", dp.Quadratic(SIGMA3), 20.0),
]


def test_every_affine_claim_is_tested():
    claimed = {cls for cls in vars(dp.prox).values()
               if isinstance(cls, type) and issubclass(cls, dp.ProxFunction)
               and cls.prox_is_affine is True}
    assert claimed == {type(atom) for _, atom, _ in AFFINE}


@pytest.mark.parametrize("name,atom,most", AFFINE, ids=[a[0] for a in AFFINE])
@given(x=vec3, y=vec3, alpha=st.floats(-2.0, 3.0), frac=st.floats(0.01, 0.95))
def test_affine_prox_maps_combinations_to_combinations(name, atom, most, x, y, alpha,
                                                       frac):
    gamma = frac * most
    px, py = atom.prox(x, gamma), atom.prox(y, gamma)
    lhs = atom.prox((1.0 - alpha) * x + alpha * y, gamma)
    rhs = (1.0 - alpha) * px + alpha * py
    scale = (abs(1.0 - alpha) * (np.linalg.norm(x) + np.linalg.norm(px))
             + abs(alpha) * (np.linalg.norm(y) + np.linalg.norm(py)))
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


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
    assert moreau_value(dp.Zero(), 1.0, [3.0, 4.0]) == 0.0
    assert moreau_value(dp.ScaledSquare(1.0), 1.0, [2.0]) == pytest.approx(1.0)
    assert moreau_value(dp.L1Ball(0.0), 1.0, [3.0, 0.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        moreau_value(dp.Zero(), -0.5, [1.0])


def test_moreau_value_below_function_value(rng):
    for name, atom in ATOMS3:
        x = atom.prox(rng.standard_normal(3), 1.0)  # a point in the domain
        assert moreau_value(atom, 0.7, x) <= atom.value(x) + 1e-12


def test_moreau_value_matches_grid_1d():
    cases = [(dp.L1Norm(1.0), lambda w: np.abs(w)),
             (dp.ScaledSquare(0.5), lambda w: 0.25 * w ** 2),
             (dp.L1Ball(0.5), lambda w: np.where(np.abs(w) <= 1.0, 0.5 * np.abs(w), np.inf))]
    for atom, value_fn in cases:
        for x, gamma in [(2.0, 1.0), (-0.7, 0.4), (3.5, 2.0)]:
            _, grid_val = grid_prox_1d_fast(value_fn, x, gamma)
            assert moreau_value(atom, gamma, [x]) == pytest.approx(grid_val, abs=1e-8)


def test_moreau_gradient_examples(rng):
    assert np.all(envelope_grad(dp.Zero(), 2.0, [5.0, -1.0]) == 0.0)
    assert envelope_grad(dp.ScaledSquare(1.0), 1.0, [2.0])[0] == pytest.approx(1.0)
    # finite differences on a random 5-d l1 envelope
    atom = dp.L1Norm(1.0)
    x = rng.standard_normal(5) * 2
    g = envelope_grad(atom, 0.8, x)
    fd = finite_difference_gradient(lambda y: moreau_value(atom, 0.8, y), x, 1e-6)
    assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("name,atom", ATOMS3)
def test_moreau_gradient_lipschitz(name, atom, rng):
    gamma = 0.7
    for _ in range(50):
        s, s2 = rng.standard_normal(3), rng.standard_normal(3)
        dg = envelope_grad(atom, gamma, s) - envelope_grad(atom, gamma, s2)
        assert np.linalg.norm(dg) <= np.linalg.norm(s - s2) / gamma + 1e-9


# ---------------------------------------------------------------------------
# conjugate prox

def test_prox_conjugate_examples():
    # conj(0) is the indicator of {0}; conj of the l1 norm is the indicator
    # of the unit sup-norm ball, whose prox clips
    assert np.all(prox_conjugate_scaled(dp.Zero(), 0.5, [1.0, -3.0]) == 0.0)
    t = np.array([0.3, -2.0])
    np.testing.assert_allclose(prox_conjugate_scaled(dp.L1Norm(1.0), 0.5, t), [0.3, -1.0])
    assert prox_conjugate_scaled(dp.ScaledSquare(1.0), 1.0, [4.0])[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        prox_conjugate_scaled(dp.L1Norm(), 0.0, [1.0])


@given(vec3, st.floats(0.2, 5.0))
def test_moreau_identity_against_independent_conjugate(t, delta):
    # conj of the l1 norm is the sup-norm ball indicator, proxed by clipping
    lhs = prox_conjugate_scaled(dp.L1Norm(1.0), 1.0 / delta, t)
    rhs = np.clip(t, -1.0, 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conjugate_values():
    assert ConjugatePart(dp.ScaledSquare(2.0)).value([2.0]) == pytest.approx(1.0)
    with pytest.raises(CapabilityError):
        ConjugatePart(dp.ScaledSquare(-1.0)).value([1.0])
    sig = ConjugatePart(dp.Quadratic(SIGMA3))
    y = np.array([0.4, -0.1, 0.2])
    assert sig.value(y) == pytest.approx(0.5 * y @ np.linalg.solve(SIGMA3, y))
    with pytest.raises(CapabilityError):
        ConjugatePart(dp.L1Norm(1.0)).value([0.0])


# ---------------------------------------------------------------------------
# fused kernels and the envelope hook: the same floats as the compositions

EDGES = np.array([0.0, -0.0, 0.5, -0.5, np.nan, -np.nan, np.inf, -np.inf,
                  0.2, -0.2, 3.0, -3.0, 5e-324, -5e-324])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def composed_shrink(x, tau):
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


@pytest.mark.parametrize("tau", [0.0, 0.5, 5e-324, np.inf])
def test_soft_threshold_is_the_composition_bit_for_bit(tau):
    # |x| = tau exactly, both zeros and both NaNs included
    with np.errstate(invalid="ignore"):
        expected = composed_shrink(EDGES, tau)
        actual = dp.soft_threshold(EDGES, tau)
    assert np.array_equal(bits(actual), bits(expected))


@pytest.mark.parametrize("kappa", [0.0, 0.5, 0.7])
def test_l1_ball_prox_is_shrink_then_project_bit_for_bit(kappa):
    gamma = 0.5
    tau = gamma * kappa
    points = [[0.1, -0.2, -0.0],        # inside the ball after the shrink
              [1.0 + tau, -0.0, 0.0],   # on it (exactly, for tau a power of 2)
              [3.0, -4.0, 0.5],         # outside
              [-0.0, 0.0, -0.0], [np.nan, 1.0, -0.0], [-np.nan, 0.2, 0.0],
              [np.inf, 0.0, -1.0], [1e200, -1e200, 0.0]]
    for point in points:
        x = np.array(point)
        with np.errstate(invalid="ignore", over="ignore"):
            w = composed_shrink(x, tau)
            expected = w / max(1.0, sqrt(w @ w))
            actual = dp.L1Ball(kappa).prox(x, gamma)
            direct = dp.prox_l1_ball(x, tau)
        assert np.array_equal(bits(actual), bits(expected)), point
        assert np.array_equal(bits(direct), bits(expected)), point


def quadratic_envelope_at_prox(atom, w, x, gamma):
    """Quadratic's value_at_prox + ||w - x||^2/(2*gamma)."""
    return atom.value_at_prox(w, x, gamma) + metric_half_sq(w - x, gamma)


@pytest.mark.parametrize("name,atom", ATOMS3)
def test_envelope_at_prox_is_the_default_formula_exactly(name, atom, rng):
    # value + ||w - x||^2/(2*gamma), the base-class formula; a Quadratic's
    # value term is its value_at_prox, which needs no product with Sigma
    default = (quadratic_envelope_at_prox if isinstance(atom, dp.Quadratic)
               else dp.ProxFunction.envelope_at_prox)
    for _ in range(20):
        gamma = float(rng.uniform(0.1, 3.0))
        x = rng.standard_normal(3) * 2
        w = atom.prox(x, gamma)
        assert float(atom.envelope_at_prox(w, x, gamma)).hex() == \
            float(default(atom, w, x, gamma)).hex()
        if isinstance(atom, DIAG_ATOMS):
            entries = np.array([0.4, 0.4, 1.3]) * gamma  # uniform on each block
            w = prox_diag(atom, x, entries)
            assert float(atom.envelope_at_prox(w, x, entries)).hex() == \
                float(default(atom, w, x, entries)).hex()


def test_envelope_at_prox_is_the_moreau_value(rng):
    for name, atom in ATOMS3:
        x = rng.standard_normal(3)
        assert moreau_value(atom, 0.6, x) == atom.envelope_at_prox(
            atom.prox(x, 0.6), x, 0.6)


def test_finite_check_accepts_entries_whose_squares_overflow():
    # x @ x overflows to inf, so the elementwise test decides, silently
    x = np.array([1e200, -1e200, 3e199])
    with np.errstate(over="ignore"):
        assert not np.isfinite(x @ x)
    atom = dp.Quadratic(SIGMA3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = atom.prox(x, 0.7)
        u = atom.backward(x, 0.1)
    inverse = _spd_inverse(np.eye(3) + 0.7 * SIGMA3)
    assert np.array_equal(w, dsymv(1.0, inverse.T, x))
    inverse = _spd_inverse(np.eye(3) - 0.1 * SIGMA3)
    assert np.array_equal(u, dsymv(1.0, inverse.T, x))


@pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("big", [1.0, 1e200])
def test_finite_check_rejects_every_non_finite_input(bad, big):
    x = np.array([big, bad, 0.5])
    atom = dp.Quadratic(SIGMA3)
    for call in (lambda: atom.prox(x, 0.7), lambda: atom.backward(x, 0.1)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


# ---------------------------------------------------------------------------
# diagonal metric

def test_prox_diag_uniform_reduces_to_scalar():
    entries = np.full(3, 0.8)
    for name, atom in ATOMS3:
        if not isinstance(atom, DIAG_ATOMS):
            continue
        s = np.array([1.2, -3.0, 0.4])
        np.testing.assert_array_equal(prox_diag(atom, s, entries), atom.prox(s, 0.8))


def test_prox_diag_l1_example():
    # each 1-d block has a uniform stepsize, so it takes the scalar prox
    blocks = dp.BlockSeparable([(dp.L1Norm(1.0), 1), (dp.L1Norm(1.0), 1)])
    np.testing.assert_allclose(prox_diag(blocks, [3.0, 3.0], [1.0, 2.0]), [2.0, 1.0])


def test_prox_diag_quadratic_matches_dense_solve(rng):
    atom = dp.Quadratic(SIGMA3)
    entries = np.array([0.5, 1.5, 2.0])
    x = rng.standard_normal(3)
    w = prox_diag(atom, x, entries)
    expected = np.linalg.solve(np.eye(3) + np.diag(entries) @ SIGMA3, x)
    np.testing.assert_allclose(w, expected, atol=1e-10)
    # optimality: x in w + Gamma * grad
    np.testing.assert_allclose(w + entries * (SIGMA3 @ w), x, atol=1e-10)


def test_prox_diag_capability_errors():
    with pytest.raises(CapabilityError):
        prox_diag(dp.L1Ball(0.0), [3.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        prox_diag(dp.Linear([1.0, 1.0]), [3.0, 3.0], [1.0, -2.0])
    blocks = dp.BlockSeparable([(dp.L1Ball(0.0), 2), (dp.L1Norm(), 1)])
    # uniform on the ball block is fine, nonuniform is not
    out = prox_diag(blocks, np.array([3.0, 0.0, 2.0]), np.array([1.0, 1.0, 0.5]))
    np.testing.assert_allclose(out, [1.0, 0.0, 1.5])
    with pytest.raises(CapabilityError):
        prox_diag(blocks, np.array([3.0, 0.0, 2.0]), np.array([1.0, 2.0, 0.5]))


def test_block_separable_value_and_dim():
    blocks = dp.BlockSeparable([(dp.L1Norm(1.0), 2), (dp.ScaledSquare(2.0), 1)])
    assert blocks.dim == 3
    assert blocks.value([1.0, -2.0, 3.0]) == pytest.approx(3.0 + 9.0)
    with pytest.raises(ValueError):
        blocks.value([1.0, 2.0])


def test_extended_value_atoms():
    assert dp.L1Ball(0.0).value([2.0, 0.0]) == np.inf
    assert dp.L1Ball(0.0).value([0.6, 0.8]) == 0.0
    assert dp.L1Ball(0.0).value([0.6, 0.81]) == np.inf
    assert dp.L1Ball(0.5).value([0.3, 0.3]) == pytest.approx(0.3)
    assert dp.L1Ball(0.5).value([1.2, 0.0]) == np.inf


@pytest.mark.parametrize("atom", [dp.Quadratic(SIGMA3), dp.L1Ball(0.7), dp.Zero()],
                         ids=["quadratic", "l1-ball", "zero"])
def test_batched_values_match_value(atom, rng):
    # row norms from 0.1 to 3: the ball atom's rows fall inside and outside.
    # zero takes the default loop over value, which ignores a NaN row
    rows = rng.standard_normal((40, 3))
    rows *= rng.uniform(0.1, 3.0, size=(40, 1)) / np.linalg.norm(rows, axis=1,
                                                                  keepdims=True)
    clean = atom.values(rows)
    rows[7] = np.nan
    batched = atom.values(rows)
    assert batched.shape == (40,)
    for i, x in enumerate(rows):
        expected = atom.value(x)
        if np.isnan(expected) or np.isinf(expected):
            np.testing.assert_array_equal(batched[i], expected)
        else:
            assert batched[i] == pytest.approx(expected, rel=1e-12, abs=1e-300)
    if isinstance(atom, dp.L1Ball):
        assert np.isinf(batched).sum() > 5 and np.isfinite(batched).sum() > 5
    assert np.isnan(batched[7]) == (not isinstance(atom, dp.Zero))
    others = np.arange(40) != 7
    np.testing.assert_array_equal(batched[others], clean[others])


def test_default_batched_values_are_the_value_loop(rng):
    atom = dp.BlockSeparable([(dp.L1Norm(1.0), 2), (dp.ScaledSquare(0.5), 1)])
    rows = rng.standard_normal((5, 3))
    assert atom.values(rows).tolist() == [atom.value(x) for x in rows]
