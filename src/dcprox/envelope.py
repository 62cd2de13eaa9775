"""Smooth envelope for difference-of-convex objectives.

For a pair of convex functions (g, h) and a stepsize gamma, the envelope

    env(s) = g_env(s) - h_env(s)

(difference of the two Moreau envelopes) is Lipschitz-differentiable with

    grad env(s) = (prox_h(s, gamma) - prox_g(s, gamma)) / gamma,

and its stationary points correspond exactly to points where the
subdifferentials of g and h intersect. All evaluation here goes through the
two proximal maps so that value and gradient are consistent to machine
precision at the same point; the two prox calls are independent and may be
executed concurrently by callers.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .prox import (
    NumericalError,
    ProxFunction,
    _apply_inverse,
    _as_vector,
    _check_gamma,
    _spd_inverse,
    prox_shifted,
)


def dc_value(g_val, h_val):
    """Difference g_val - h_val with the convention inf - inf = +inf."""
    if g_val == np.inf:
        return np.inf
    if h_val == np.inf:
        return -np.inf
    return g_val - h_val


def metric_half_sq(d, gamma):
    """0.5 * ||d||^2 weighted by 1/gamma; gamma scalar or positive vector."""
    d = np.asarray(d)
    return 0.5 * float(np.sum(d * d / gamma))


# ---------------------------------------------------------------------------
# smooth functions and the backward prox


@dataclass(frozen=True)
class SmoothFunction:
    """A differentiable function given by value/gradient oracles.

    ``lipschitz`` bounds the gradient's Lipschitz constant. ``backward``
    optionally solves u - gamma*grad(u) = s in closed form; without it the
    backward prox falls back to a fixed-point iteration (a contraction
    whenever gamma*lipschitz < 1).
    """

    value: Callable
    grad: Callable
    lipschitz: float
    backward: Optional[Callable] = None
    curvature_max: Optional[float] = None  # largest eigenvalue of the Hessian


def quadratic_smooth(q, c=None, eig_range=None):
    """Smooth function 0.5 x'Qx + <c,x> with a closed-form backward solve.

    ``eig_range`` optionally supplies (lambda_min, lambda_max) of Q to skip
    the eigenvalue computation.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    c = np.zeros(n) if c is None else _as_vector(c)
    if eig_range is None:
        eigs = np.linalg.eigvalsh(q) if n > 0 else np.zeros(1)
        eig_range = (float(eigs.min()), float(eigs.max()))
    eigmax = eig_range[1]
    lip = max(abs(eig_range[0]), abs(eig_range[1]))
    cache = {}

    def value(x):
        x = _as_vector(x)
        return 0.5 * float(x @ (q @ x)) + float(c @ x)

    def grad(x):
        x = _as_vector(x)
        return q @ x + c

    def backward(s, gamma):
        # u = inv(I - gamma*Q) (s + gamma*c), the inverse cached per gamma
        if gamma not in cache:
            try:
                cache[gamma] = _spd_inverse(np.eye(n) - gamma * q)
            except np.linalg.LinAlgError as exc:
                raise ValueError(
                    f"backward prox undefined: I - gamma*Q not positive definite "
                    f"(gamma={gamma})") from exc
        return _apply_inverse(cache[gamma], _as_vector(s) + gamma * c)

    return SmoothFunction(value=value, grad=grad, lipschitz=lip,
                          backward=backward, curvature_max=eigmax)


def linear_smooth(c):
    """Smooth function <c, x>: constant gradient, zero curvature."""
    c = _as_vector(c)

    def backward(s, gamma):
        return _as_vector(s) + gamma * c

    return SmoothFunction(value=lambda x: float(c @ _as_vector(x)),
                          grad=lambda x: c.copy(),
                          lipschitz=0.0, backward=backward, curvature_max=0.0)


def negate_smooth(f):
    """The smooth function -f, preserving a closed-form backward when known."""
    backward = None
    if f.backward is not None:
        def backward(s, gamma, _b=f.backward):
            # u + gamma*grad f(u) = s is the backward solve of f at -gamma;
            # quadratic/linear closed forms accept negative stepsizes.
            return _b(s, -gamma)
    return SmoothFunction(value=lambda x: -f.value(x),
                          grad=lambda x: -f.grad(x),
                          lipschitz=f.lipschitz,
                          backward=backward,
                          curvature_max=None)


def backward_smooth_prox(f, gamma, s, tol=1e-12, max_iter=1000):
    """The unique u with s = u - gamma*grad f(u).

    Uses the closed-form solve when the smooth function carries one;
    otherwise a damped fixed-point iteration u <- s + gamma*grad f(u),
    a contraction for gamma*lipschitz < 1. Raises NumericalError if the
    iteration does not reach tol*(1 + ||s||).
    """
    _check_gamma(gamma)
    s = _as_vector(s)
    if f.backward is not None:
        return f.backward(s, gamma)
    if gamma * f.lipschitz >= 1.0:
        raise ValueError(
            f"fixed-point backward prox needs gamma*L < 1, got {gamma * f.lipschitz}")
    target = tol * (1.0 + float(np.linalg.norm(s)))
    u = s.copy()
    for _ in range(max_iter):
        u_next = s + gamma * f.grad(u)
        if float(np.linalg.norm(u_next - u)) <= target * (1.0 - gamma * f.lipschitz):
            return u_next
        u = u_next
    res = float(np.linalg.norm(u - gamma * f.grad(u) - s))
    raise NumericalError(
        f"backward prox did not converge in {max_iter} iterations "
        f"(residual {res:.3e}, target {target:.3e})")


class SmoothProxFunction(ProxFunction):
    """Wrap a smooth (possibly nonconvex) function as a prox-queryable one.

    The prox solves w + gamma*grad(w) = s, which is the unique minimizer of
    w -> f(w) + ||w - s||^2/(2*gamma) while gamma times the curvature stays
    below one.
    """

    def __init__(self, smooth):
        self.smooth = smooth
        self._neg = negate_smooth(smooth)

    def value(self, x):
        return self.smooth.value(x)

    def prox(self, x, gamma):
        return backward_smooth_prox(self._neg, gamma, x)


# ---------------------------------------------------------------------------
# problem instances and envelope evaluation


@dataclass(frozen=True)
class DcInstance:
    """A difference-of-convex problem phi = g - h.

    ``mu`` is the hypoconvexity modulus: 0 when g and h are plainly convex,
    otherwise the smallest weight making both g + mu/2||.||^2 and
    h + mu/2||.||^2 convex. ``smooth_h`` optionally carries a gradient
    oracle for h (required by the forward-backward style baselines), and
    ``dca_step`` optionally solves argmin_x g(x) - <v, x>.
    """

    g: ProxFunction
    h: ProxFunction
    dim: int
    mu: float = 0.0
    smooth_h: Optional[SmoothFunction] = None
    dca_step: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        for part in (self.g, self.h):
            if part.dim is not None and part.dim != self.dim:
                raise ValueError(
                    f"{type(part).__name__} has dim {part.dim}, instance dim {self.dim}")

    def phi(self, x):
        """Objective value g(x) - h(x) with the inf - inf = +inf convention."""
        return dc_value(self.g.value(x), self.h.value(x))


@dataclass(frozen=True)
class EnvelopeEval:
    """One envelope evaluation: both prox points, value, gradient, residual.

    ``gamma`` is the stepsize convention the evaluation was made under; for
    hypoconvex instances it applies to the quadratically shifted pair and
    ``gamma_effective`` = gamma/(1 + gamma*mu) is the stepsize actually
    passed to the raw proximal maps.
    """

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    env: float
    grad: np.ndarray = field(repr=False)
    residual: float
    gamma: float
    gamma_effective: float


def env_value_from_pair(inst, gamma, s, u, v):
    """Envelope value from already-computed prox points u, v at s.

    Exact because u and v are the minimizers defining the two Moreau
    envelopes: env(s) = [g(v) + d(v,s)] - [h(u) + d(u,s)] with the
    1/(2*gamma) metric. ``gamma`` may be a scalar or a diagonal vector.
    """
    g_val = inst.g.value_at_prox(v, s, gamma) + metric_half_sq(v - s, gamma)
    h_val = inst.h.value_at_prox(u, s, gamma) + metric_half_sq(u - s, gamma)
    return dc_value(g_val, h_val)


def dce_eval(inst, gamma, s):
    """Evaluate the envelope of ``inst`` at s with stepsize gamma.

    For mu > 0 the envelope is the one of the shifted convex pair
    (g + mu/2||.||^2, h + mu/2||.||^2): the proxes route through the
    shifted-prox identity and gamma is the shifted-pair stepsize.
    """
    _check_gamma(gamma)
    s = _as_vector(s)
    if inst.mu != 0.0:
        scale = 1.0 + gamma * inst.mu
        if scale <= 0:
            raise ValueError("1 + gamma*mu must be positive")
        g_eff = gamma / scale
        s_eff = s / scale
        u = prox_shifted(inst.h, inst.mu, gamma, s)
        v = prox_shifted(inst.g, inst.mu, gamma, s)
        env = env_value_from_pair(inst, g_eff, s_eff, u, v)
    else:
        g_eff = gamma
        u = inst.h.prox(s, gamma)
        v = inst.g.prox(s, gamma)
        env = env_value_from_pair(inst, gamma, s, u, v)
    grad = (u - v) / gamma
    return EnvelopeEval(s=s, u=u, v=v, env=env, grad=grad,
                        residual=float(np.linalg.norm(u - v)),
                        gamma=gamma, gamma_effective=g_eff)


def sandwich_bounds(inst, gamma, s):
    """Two-sided objective bracket around the envelope value.

    Returns (lower, upper) with
    lower = phi(v) + ||v-u||^2/(2*gamma) <= env(s) <= phi(u) - ||v-u||^2/(2*gamma)
    = upper; infinite values pass through when a prox point leaves the
    other function's domain.
    """
    ev = dce_eval(inst, gamma, s)
    gap = metric_half_sq(ev.v - ev.u, ev.gamma)
    lower = inst.phi(ev.v)
    upper = inst.phi(ev.u)
    lower = lower + gap if lower != np.inf else np.inf
    upper = upper - gap if upper != np.inf else np.inf
    return lower, upper


def is_stationary(inst, gamma, s, tol):
    """True when the fixed-point residual ||u - v|| is within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return dce_eval(inst, gamma, s).residual <= tol


# ---------------------------------------------------------------------------
# forward-backward reparametrization


def fbe_value(f, g, gamma, u):
    """Forward-backward surrogate of f + g at u for gamma < 1/L_f.

    f(u) - (gamma/2)||grad f(u)||^2 + Moreau envelope of g at the forward
    point u - gamma*grad f(u).
    """
    _check_gamma(gamma)
    if f.lipschitz > 0 and gamma >= 1.0 / f.lipschitz:
        raise ValueError(f"fbe needs gamma < 1/L, got gamma={gamma}, L={f.lipschitz}")
    u = _as_vector(u)
    gf = f.grad(u)
    forward = u - gamma * gf
    from .prox import moreau_value
    return f.value(u) - 0.5 * gamma * float(gf @ gf) + moreau_value(g, gamma, forward)


def envelope_of_smooth_pair(f, g, gamma, s):
    """Envelope value of (g, -f) at s when -f plays the concave part.

    Valid for any smooth f with gamma below the backward-prox range; the
    Moreau value of -f is computed through the backward prox point.
    """
    s = _as_vector(s)
    u = backward_smooth_prox(f, gamma, s)
    d = u - s
    h_env = -f.value(u) + 0.5 * float(d @ d) / gamma
    from .prox import moreau_value
    return moreau_value(g, gamma, s) - h_env


def dce_fbe_equivalence_check(f, g, gamma, points):
    """Max deviation |env(s) - fbe(backward(s))| over the sample points.

    The envelope of (g, -f) and the forward-backward surrogate of f + g
    coincide after the nonlinear change of variable u = backward prox of s;
    this returns the largest absolute mismatch observed.
    """
    worst = 0.0
    for s in points:
        env = envelope_of_smooth_pair(f, g, gamma, s)
        u = backward_smooth_prox(f, gamma, s)
        worst = max(worst, abs(env - fbe_value(f, g, gamma, u)))
    return worst
