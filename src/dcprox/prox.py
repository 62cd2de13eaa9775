"""Proximal-operator atoms and Moreau-envelope machinery.

Every atom is an extended-real convex function exposed through two
evaluations: its value (``np.inf`` outside the effective domain) and its
proximal map

    prox(x, gamma) = argmin_w  f(w) + ||w - x||^2 / (2*gamma).

Atoms are immutable after construction and safe for concurrent read access
(the quadratic's prox is one GEMV with an inverse cached in a one-slot,
per-stepsize cache; pass ``gamma`` to constructors that accept it to
pre-populate it). Some atoms additionally support a diagonal metric
``prox_diag`` (stepsize vector) and expose that through ``supports_diag``.
"""

import numpy as np
from scipy.linalg import inv


class CapabilityError(Exception):
    """An operation was requested from an atom that does not support it."""


class NumericalError(RuntimeError):
    """An inner numerical procedure failed to reach its tolerance."""


def _as_vector(x):
    x = np.asarray(x, dtype=float)
    return np.atleast_1d(x)


def _check_gamma(gamma):
    if not np.isscalar(gamma) and np.asarray(gamma).ndim > 0:
        raise ValueError("scalar stepsize expected; use prox_diag for vectors")
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"stepsize must be positive and finite, got {gamma}")


def _spd_inverse(mat):
    """Explicit inverse of a symmetric positive definite matrix.

    Computed once per matrix from its Cholesky factor, which checks ``mat``
    for non-finite entries and raises LinAlgError unless it is positive
    definite, so a linear solve with a fixed matrix then costs one
    ``_apply_inverse`` GEMV per call. For matrices I + gamma*Sigma (every
    eigenvalue >= 1) the explicit inverse is as accurate as two triangular
    solves. ``mat`` is overwritten.
    """
    return inv(mat, overwrite_a=True, assume_a="pos")


def _apply_inverse(inverse, x):
    """inverse @ x after an O(n) check that x is finite (ValueError if not)."""
    x = _as_vector(x)
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return inverse @ x


def validate_diagonal(entries, dim=None):
    """Validate a diagonal-stepsize vector: strictly positive, right length."""
    entries = _as_vector(entries)
    if dim is not None and entries.shape != (dim,):
        raise ValueError(f"diagonal stepsize has shape {entries.shape}, expected ({dim},)")
    if not np.all(entries > 0):
        raise ValueError("diagonal stepsize entries must all be positive")
    return entries


# ---------------------------------------------------------------------------
# closed-form building blocks


def soft_threshold(x, tau):
    """Shrink x toward 0 by tau (elementwise); exact zero at |x_i| <= tau_i."""
    x = _as_vector(x)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def project_unit_ball(x):
    """Euclidean projection onto the closed unit ball."""
    x = _as_vector(x)
    return x / max(1.0, float(np.linalg.norm(x)))


def prox_l1_ball(x, tau):
    """Prox of tau*||.||_1 + indicator of the unit ball: shrink then project."""
    if tau < 0:
        raise ValueError("l1 weight must be nonnegative")
    return project_unit_ball(soft_threshold(x, tau))


def prox_quadratic(sigma, gamma, x):
    """Solve (I + gamma*Sigma) w = x for symmetric PSD Sigma (one-shot)."""
    return Quadratic(sigma, gamma=gamma).prox(x, gamma)


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

    def prox(self, x, gamma):
        raise NotImplementedError

    @property
    def supports_diag(self):
        return False

    def prox_diag(self, x, entries):
        raise CapabilityError(f"{type(self).__name__} has no diagonal-metric prox")

    def value_at_prox(self, w, x, gamma):
        """Value at w given that w = prox(x, gamma); atoms may shortcut."""
        return self.value(w)

    def conjugate_value(self, y):
        raise CapabilityError(f"{type(self).__name__} has no closed-form conjugate")

    def __call__(self, x):
        return self.value(x)


class Zero(ProxFunction):
    """The zero function; its prox is the identity."""

    prox_is_affine = True

    def value(self, x):
        return 0.0

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return _as_vector(x).copy()

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        return _as_vector(x).copy()

    def conjugate_value(self, y):
        # conjugate is the indicator of {0}
        return 0.0 if np.linalg.norm(_as_vector(y)) <= 1e-12 else np.inf


class ZeroIndicator(ProxFunction):
    """Indicator of {0}; its prox maps everything to the origin."""

    prox_is_affine = True

    def value(self, x):
        return 0.0 if np.linalg.norm(_as_vector(x)) <= 1e-12 else np.inf

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return np.zeros_like(_as_vector(x))

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        return np.zeros_like(_as_vector(x))

    def conjugate_value(self, y):
        return 0.0


class Linear(ProxFunction):
    """f(x) = <c, x>; prox is a constant shift."""

    prox_is_affine = True

    def __init__(self, c):
        self.c = _as_vector(c)
        self.dim = self.c.shape[0]

    def value(self, x):
        return float(self.c @ _as_vector(x))

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return _as_vector(x) - gamma * self.c

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        entries = validate_diagonal(entries, self.dim)
        return _as_vector(x) - entries * self.c


class L1Norm(ProxFunction):
    """f(x) = weight * ||x||_1; prox is the soft threshold."""

    def __init__(self, weight=1.0):
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.sum(np.abs(_as_vector(x))))

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return soft_threshold(x, gamma * self.weight)

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        entries = validate_diagonal(entries)
        return soft_threshold(x, entries * self.weight)

    def conjugate_value(self, y):
        # conjugate is the indicator of the weight-radius sup-norm ball
        y = _as_vector(y)
        return 0.0 if np.max(np.abs(y), initial=0.0) <= self.weight + 1e-12 else np.inf


class LinfBall(ProxFunction):
    """Indicator of {x : ||x||_inf <= radius}; prox clips coordinatewise."""

    def __init__(self, radius=1.0):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.radius = float(radius)

    def value(self, x):
        x = _as_vector(x)
        return 0.0 if np.max(np.abs(x), initial=0.0) <= self.radius + 1e-9 else np.inf

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return np.clip(_as_vector(x), -self.radius, self.radius)

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        return np.clip(_as_vector(x), -self.radius, self.radius)


class UnitBall(ProxFunction):
    """Indicator of the Euclidean unit ball; prox is the projection."""

    def value(self, x):
        x = _as_vector(x)
        return 0.0 if float(np.linalg.norm(x)) <= 1.0 + 1e-9 else np.inf

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return project_unit_ball(x)

    def value_at_prox(self, w, x, gamma):
        return 0.0


class L1Ball(ProxFunction):
    """f(x) = kappa*||x||_1 + indicator of the unit ball.

    The prox composes the soft threshold with the ball projection; the
    composite is exact for this pairing.
    """

    def __init__(self, kappa):
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")
        self.kappa = float(kappa)

    def value(self, x):
        x = _as_vector(x)
        if float(np.linalg.norm(x)) > 1.0 + 1e-9:
            return np.inf
        return self.kappa * float(np.sum(np.abs(x)))

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return prox_l1_ball(x, gamma * self.kappa)

    def value_at_prox(self, w, x, gamma):
        return self.kappa * float(np.sum(np.abs(w)))


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
        return 0.5 * self.curvature * float(x @ x)

    def prox(self, x, gamma):
        _check_gamma(gamma)
        scale = 1.0 + gamma * self.curvature
        if scale <= 0:
            raise ValueError(f"prox undefined: 1 + gamma*curvature = {scale} <= 0")
        return _as_vector(x) / scale

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        entries = validate_diagonal(entries)
        scale = 1.0 + entries * self.curvature
        if np.any(scale <= 0):
            raise ValueError("prox undefined for some diagonal entries")
        return _as_vector(x) / scale

    def conjugate_value(self, y):
        if self.curvature <= 0:
            raise CapabilityError("conjugate value needs positive curvature")
        y = _as_vector(y)
        return 0.5 * float(y @ y) / self.curvature


class Quadratic(ProxFunction):
    """f(x) = x' Sigma x / 2 for symmetric positive semidefinite Sigma.

    The prox w = inv(I + gamma*Sigma) x is one GEMV with an explicit inverse
    cached per stepsize (one slot each for the scalar and diagonal metrics;
    pass ``gamma`` to precompute it so concurrent readers never write).
    """

    prox_is_affine = True

    def __init__(self, sigma, gamma=None):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("Sigma must be a square matrix")
        if not np.allclose(sigma, sigma.T, atol=1e-10 * (1.0 + np.abs(sigma).max())):
            raise ValueError("Sigma must be symmetric")
        self.sigma = sigma
        self.dim = sigma.shape[0]
        self._fwd = None   # (gamma, inverse of I + gamma*Sigma)
        self._diag = None  # (entries bytes, inverse of inv(G) + Sigma)
        if gamma is not None:
            self._fwd_inverse(gamma)

    def _fwd_inverse(self, gamma):
        if self._fwd is None or self._fwd[0] != gamma:
            self._fwd = (gamma, _spd_inverse(np.eye(self.dim) + gamma * self.sigma))
        return self._fwd[1]

    def value(self, x):
        x = _as_vector(x)
        return 0.5 * float(x @ (self.sigma @ x))

    def value_at_prox(self, w, x, gamma):
        # (I + gamma*Sigma) w = x  =>  Sigma w = (x - w)/gamma; avoids a matvec
        w = _as_vector(w)
        return 0.5 * float(np.sum(w * (_as_vector(x) - w) / gamma))

    def prox(self, x, gamma):
        _check_gamma(gamma)
        return _apply_inverse(self._fwd_inverse(gamma), x)

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        # (I + G*Sigma) w = x  <=>  (inv(G) + Sigma) w = inv(G) x, SPD system
        entries = validate_diagonal(entries, self.dim)
        if np.all(entries == entries[0]):
            return self.prox(x, float(entries[0]))
        key = entries.tobytes()
        if self._diag is None or self._diag[0] != key:
            self._diag = (key, _spd_inverse(np.diag(1.0 / entries) + self.sigma))
        return _apply_inverse(self._diag[1], _as_vector(x) / entries)

    def conjugate_value(self, y):
        y = _as_vector(y)
        try:
            w = np.linalg.solve(self.sigma, y)
        except np.linalg.LinAlgError as exc:
            raise CapabilityError("conjugate value needs invertible Sigma") from exc
        return 0.5 * float(y @ w)


class BlockSeparable(ProxFunction):
    """Direct sum of atoms over contiguous blocks of coordinates.

    ``parts`` is a list of (atom, block_size). Diagonal-metric proxes fall
    back to the scalar prox on blocks whose stepsize entries are all equal,
    so atoms without diagonal support still work under blockwise-uniform
    metrics.
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

    def value_at_prox(self, w, x, gamma):
        w = self._blocks(w)
        x = self._blocks(x)
        total = 0.0
        for atom, a, b in self.parts:
            g = gamma if np.isscalar(gamma) else gamma[a:b]
            total += atom.value_at_prox(w[a:b], x[a:b], g)
        return total

    def prox(self, x, gamma):
        _check_gamma(gamma)
        x = self._blocks(x)
        out = np.empty_like(x)
        for atom, a, b in self.parts:
            out[a:b] = atom.prox(x[a:b], gamma)
        return out

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        x = self._blocks(x)
        entries = validate_diagonal(entries, self.dim)
        out = np.empty_like(x)
        for atom, a, b in self.parts:
            blk = entries[a:b]
            if atom.supports_diag:
                out[a:b] = atom.prox_diag(x[a:b], blk)
            elif np.all(blk == blk[0]):
                out[a:b] = atom.prox(x[a:b], float(blk[0]))
            else:
                raise CapabilityError(
                    f"{type(atom).__name__} block needs a uniform diagonal stepsize")
        return out

    @property
    def prox_is_affine(self):
        return all(atom.prox_is_affine for atom, _, _ in self.parts)


# ---------------------------------------------------------------------------
# Moreau-envelope operations


def moreau_value(f, gamma, x):
    """Envelope value f(p) + ||p - x||^2/(2*gamma) at p = prox(x, gamma)."""
    _check_gamma(gamma)
    x = _as_vector(x)
    p = f.prox(x, gamma)
    d = p - x
    return f.value_at_prox(p, x, gamma) + 0.5 * float(d @ d) / gamma


def moreau_gradient(f, gamma, x):
    """Gradient of the Moreau envelope: (x - prox(x, gamma)) / gamma."""
    _check_gamma(gamma)
    x = _as_vector(x)
    return (x - f.prox(x, gamma)) / gamma


def prox_shifted(f, mu, gamma, x):
    """Prox of f + (mu/2)||.||^2 with stepsize gamma, via rescaling.

    Valid while 1 + gamma*mu > 0; the shifted prox equals the plain prox of
    f with effective stepsize gamma/(1 + gamma*mu) at x/(1 + gamma*mu).
    """
    _check_gamma(gamma)
    scale = 1.0 + gamma * mu
    if scale <= 0:
        raise ValueError(f"shifted prox undefined: 1 + gamma*mu = {scale} <= 0")
    return f.prox(_as_vector(x) / scale, gamma / scale)


def prox_conjugate(f, delta, t):
    """Prox of conj(f)/delta at t: t - prox of delta*f at delta*t, over delta."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    t = _as_vector(t)
    return t - f.prox(delta * t, delta) / delta


def prox_conjugate_scaled(f, sigma, t):
    """Prox of sigma*conj(f) at t for any sigma > 0 (same identity)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    t = _as_vector(t)
    return t - sigma * f.prox(t / sigma, 1.0 / sigma)


def prox_diag(f, entries, x):
    """Diagonal-metric prox argmin_w f(w) + ||w - x||^2_{diag(entries)^-1}/2."""
    entries = validate_diagonal(entries)
    if not f.supports_diag:
        raise CapabilityError(f"{type(f).__name__} does not support a diagonal metric")
    return f.prox_diag(x, entries)
