"""Smooth envelope for difference-of-convex objectives.

For a pair of convex functions (g, h) and a stepsize gamma, the envelope

    env(s) = g_env(s) - h_env(s)

(difference of the two Moreau envelopes) is Lipschitz-differentiable with

    grad env(s) = (prox_h(s, gamma) - prox_g(s, gamma)) / gamma,

and its stationary points correspond exactly to points where the
subdifferentials of g and h intersect; for g and h convex after adding
mu/2||.||^2, while gamma*mu < 1 (Rockafellar and Wets, Variational
Analysis, 1998, prox-regular functions). Evaluation, the solvers' and
``two_prox.dce_eval``'s, goes through the two proximal maps so that value
and gradient are consistent to machine precision at the same point; the two
prox calls are independent and may be executed concurrently by callers.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .prox import ProxFunction


def dc_value(g_val, h_val):
    """Difference g_val - h_val with the convention inf - inf = +inf."""
    if g_val == np.inf:
        return np.inf
    if h_val == np.inf:
        return -np.inf
    return g_val - h_val


def dc_values(g_vals, h_vals):
    """``dc_value`` elementwise over two arrays of values."""
    with np.errstate(invalid="ignore"):
        out = g_vals - h_vals
    out[h_vals == np.inf] = -np.inf
    out[g_vals == np.inf] = np.inf
    return out


# ---------------------------------------------------------------------------
# smooth functions and the backward prox


@dataclass(frozen=True)
class SmoothFunction:
    """A differentiable function given by value/gradient oracles.

    ``lipschitz`` bounds the gradient's Lipschitz constant. ``backward``
    solves u - gamma*grad(u) = s in closed form; it is required, since the
    backward prox has no iterative fallback. ``smooth_view`` gives these
    oracles as a smooth atom's own methods.
    """

    value: Callable
    grad: Callable
    lipschitz: float
    backward: Callable
    curvature_max: Optional[float] = None  # largest eigenvalue of the Hessian


def smooth_view(atom, eig_range):
    """The smooth function of a ``Linear`` or ``Quadratic`` atom.

    Its value, gradient and backward solve are the atom's own methods, so a
    quadratic's backward inverse lives in the atom's cache beside the prox
    inverses. ``eig_range`` is (lambda_min, lambda_max) of the Hessian.
    """
    return SmoothFunction(value=atom.value, grad=atom.grad,
                          lipschitz=max(abs(eig_range[0]), abs(eig_range[1])),
                          backward=atom.backward, curvature_max=eig_range[1])


# ---------------------------------------------------------------------------
# problem instances and the envelope value


def check_dims(dim, parts):
    """ValueError unless dim is at least 1 and each atom of ``parts`` that
    fixes a dimension fixes ``dim``."""
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    for part in parts:
        if part.dim is not None and part.dim != dim:
            raise ValueError(f"{type(part).__name__} has dim {part.dim}, instance dim {dim}")


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
    name: str = ""  # no package code sets it; perfbench's traced copy passes it on

    def __post_init__(self):
        check_dims(self.dim, (self.g, self.h))

    def phi(self, x):
        """Objective value g(x) - h(x) with the inf - inf = +inf convention."""
        return dc_value(self.g.value(x), self.h.value(x))

    def phis(self, rows):
        """``phi`` at each row of a k-by-dim array, batched where atoms allow."""
        return dc_values(self.g.values(rows), self.h.values(rows))


def env_value_from_pair(inst, gamma, s, u, v):
    """Envelope value from already-computed prox points u, v at s.

    Exact because u and v are the minimizers defining the two Moreau
    envelopes: env(s) = [g(v) + d(v,s)] - [h(u) + d(u,s)] with the
    1/(2*gamma) metric, each bracket an atom's ``envelope_at_prox``, at a
    scalar stepsize gamma.
    """
    return dc_value(inst.g.envelope_at_prox(v, s, gamma),
                    inst.h.envelope_at_prox(u, s, gamma))
