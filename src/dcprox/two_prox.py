"""Relaxed two-prox iteration: gradient descent on the DC envelope.

Each iteration evaluates the two proximal maps at the current point (they
are independent and may run concurrently) and oversteps along their gap:

    u = prox_h(s, gamma),  v = prox_g(s, gamma),  s+ = s + lam*(v - u),

which equals s - lam*gamma*grad env(s). The envelope decreases by at least
lam*(2-lam)/(2*gamma) * ||u-v||^2 per step (suitably reweighted for
hypoconvex pairs and diagonal metrics), and the solver enforces that as a
runtime assertion: a violation beyond rounding slack terminates the run
with a numerical-error status, usually signalling a wrong curvature
modulus on the instance.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .envelope import env_value_from_pair
from .prox import _as_vector, validate_diagonal
from .reports import CallCounter, Iterate, drive


@dataclass(frozen=True)
class TwoProxConfig:
    """Stepsize/relaxation/termination settings for the two-prox solver.

    Admissibility depends on the instance's hypoconvexity modulus mu:
    gamma > 0 with gamma*mu < 1, and 0 < lam < 2*(1 - gamma*mu). The
    boundaries are rejected.
    """

    gamma: float
    lam: float = 1.0
    tol: float = 1e-6
    max_iter: int = 1000
    record_trace: bool = True

    def validate(self, mu=0.0):
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.gamma * mu >= 1.0:
            raise ValueError(f"gamma*mu must stay below 1, got {self.gamma * mu}")
        hi = 2.0 * (1.0 - self.gamma * mu)
        if not 0.0 < self.lam < hi:
            raise ValueError(f"lam must lie in (0, {hi}), got {self.lam}")


def descent_coefficient(gamma, lam, mu=0.0):
    """Weight c with guaranteed decrease c*||u-v||^2 per relaxed step."""
    shrink = 1.0 - gamma * mu
    return lam * (2.0 * shrink - lam) / (2.0 * gamma * shrink)


def default_relaxation(gamma, mu=0.0):
    """The relaxation the command line and the check battery run with."""
    return 0.9 * (1.0 - gamma * mu) if mu else 1.0


def _relaxed_steps(inst, prox_h, prox_g, gamma, lam, claim):
    """Counter, counted prox_h, evaluate and plain_step of s+ = s + lam*(v - u).

    ``evaluate(s, u=None)`` evaluates s, taking u = prox_h(s) from a caller
    that has it. ``plain_step(it)`` returns the next evaluated iterate and
    the step's guaranteed decrease ``claim(d, d @ d)``, d = u - v. d and
    d @ d are computed once per iterate and serve the residual, the step
    s - lam*d (the same floats as s + lam*(v - u)) and the claim.
    """
    counter = CallCounter()
    prox_h = counter.wrap(prox_h, "prox_h")
    prox_g = counter.wrap(prox_g, "prox_g")

    def evaluate(s, u=None):
        if u is None:
            u = prox_h(s, gamma)
        v = prox_g(s, gamma)
        d = u - v
        dd = float(d.dot(d))
        return Iterate(s, u, v, env_value_from_pair(inst, gamma, s, u, v),
                       sqrt(dd), gaps=(d, dd))

    def plain_step(it):
        d, dd = it.gaps
        return evaluate(it.s - lam * d), claim(d, dd)

    return counter, prox_h, evaluate, plain_step


def run(inst, cfg, s0):
    """Iterate the relaxed two-prox step until ||u - v|| <= tol.

    For hypoconvex instances (mu > 0) the iteration uses the raw proximal
    maps of g and h with the tightened relaxation bound; the traced
    envelope is the one of the shifted convex pair, which at the iterate
    equals the plain pair formula evaluated with the solver's own gamma.
    """
    cfg.validate(inst.mu)
    coeff = descent_coefficient(cfg.gamma, cfg.lam, inst.mu)
    counter, _, evaluate, plain_step = _relaxed_steps(
        inst, inst.h.prox, inst.g.prox, cfg.gamma, cfg.lam,
        lambda d, dd: coeff * dd)
    return drive("dce", inst, [s0], evaluate, plain_step, lambda it: it.v,
                 counter, cfg.tol, cfg.max_iter, cfg.record_trace, cfg.gamma,
                 {"lam": cfg.lam, "mu": inst.mu})


def run_diag(inst, gamma_diag, lam_diag, s0, m_diag=None, tol=1e-6,
             max_iter=1000, record_trace=True):
    """Two-prox iteration under diagonal stepsize and relaxation vectors.

    ``m_diag`` is the diagonal quadratic shift making both functions convex
    (entries may have any sign; defaults to zero). Admissibility:
    0 < lam_diag < 2*(1 - gamma_diag*m_diag) elementwise. The instance's
    atoms must support the diagonal metric (blockwise-uniform fallbacks
    included); descent is enforced in the correspondingly weighted norm.
    """
    gamma_diag = validate_diagonal(gamma_diag, inst.dim)
    lam_diag = validate_diagonal(lam_diag, inst.dim)
    m_diag = np.zeros(inst.dim) if m_diag is None else _as_vector(m_diag)
    if m_diag.shape != (inst.dim,):
        raise ValueError("m_diag has wrong shape")
    shrink = 1.0 - gamma_diag * m_diag
    if np.any(shrink <= 0):
        raise ValueError("gamma*M must stay below 1 elementwise")
    if np.any(lam_diag >= 2.0 * shrink) or np.any(lam_diag <= 0):
        raise ValueError("lam must lie in (0, 2*(1 - gamma*M)) elementwise")
    # decrease weight (2*(I - Gamma M) - Lambda) Gamma^-1 Lambda (I - Gamma M)^-1
    weight = (2.0 * shrink - lam_diag) * lam_diag / (gamma_diag * shrink)
    counter, _, evaluate, plain_step = _relaxed_steps(
        inst, inst.h.prox_diag, inst.g.prox_diag, gamma_diag, lam_diag,
        lambda d, dd: 0.5 * float(np.sum(weight * d * d)))
    return drive("dce-diag", inst, [s0], evaluate, plain_step, lambda it: it.v,
                 counter, tol, max_iter, record_trace, float(gamma_diag[0]),
                 {"gamma_diag": gamma_diag, "lam_diag": lam_diag, "m_diag": m_diag})
