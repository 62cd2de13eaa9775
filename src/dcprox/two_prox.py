"""Relaxed two-prox iteration: gradient descent on the DC envelope.

Each iteration evaluates the two proximal maps at the current point (they
are independent and may run concurrently) and oversteps along their gap:

    u = prox_h(s, gamma),  v = prox_g(s, gamma),  s+ = s + lam*(v - u),

which equals s - lam*gamma*grad env(s). The envelope decreases by at least
lam*(2-lam)/(2*gamma) * ||u-v||^2 per step (suitably reweighted for
hypoconvex pairs), and the solver enforces that as a
runtime assertion: a violation beyond rounding slack terminates the run
with a numerical-error status, usually signalling a wrong curvature
modulus on the instance.
"""

from dataclasses import dataclass
from math import sqrt
from typing import Optional

import numpy as np

from .envelope import env_value_from_pair
from .prox import _as_vector, _check_gamma, metric_half_sq
from .reports import CallCounter, Iterate, drive


@dataclass(frozen=True)
class TwoProxConfig:
    """Stepsize, relaxation and termination settings: every solver's config.

    Each solver takes ``(inst, cfg, s0)`` and validates cfg against the
    instance's hypoconvexity modulus mu: gamma > 0 with gamma*mu < 1, and
    0 < lam < 2*(1 - gamma*mu). The boundaries are rejected. ``lam``, the
    two-prox relaxation, is 1 on a convex pair and 0.9*(1 - gamma*mu) on a
    hypoconvex one when None; dce-lbfgs uses it only in its fallback step,
    the baselines not at all.
    """

    gamma: float
    lam: Optional[float] = None
    tol: float = 1e-6
    max_iter: int = 1000
    record_trace: bool = True

    def validate(self, mu=0.0):
        """The relaxation in use at modulus mu; ValueError unless it and
        gamma are admissible."""
        _check_gamma(self.gamma)
        if self.gamma * mu >= 1.0:  # the prox of a mu-hypoconvex function is undefined
            raise ValueError(f"gamma*mu must stay below 1, got {self.gamma * mu}")
        lam = self.lam
        if lam is None:
            lam = 0.9 * (1.0 - self.gamma * mu) if mu else 1.0
        elif not np.isscalar(lam) and np.asarray(lam).ndim > 0:  # as _check_gamma tests gamma
            raise ValueError("scalar relaxation expected")
        hi = 2.0 * (1.0 - self.gamma * mu)
        if not 0.0 < lam < hi:
            raise ValueError(f"lam must lie in (0, {hi}), got {lam}")
        return lam


def descent_coefficient(gamma, lam, mu=0.0):
    """Weight c with guaranteed decrease c*||u-v||^2 per relaxed step."""
    shrink = 1.0 - gamma * mu
    return lam * (2.0 * shrink - lam) / (2.0 * gamma * shrink)


def _relaxed_steps(inst, cfg):
    """Counter, counted prox_h, evaluate and plain_step of the relaxed step
    s+ = s + lam*(v - u) of ``cfg`` on ``inst``, whose modulus the
    stepsize and relaxation are validated against.

    ``evaluate(s, u=None)`` evaluates s, taking u = prox_h(s) from a caller
    that has it. ``plain_step(it)`` returns the next evaluated iterate and
    the step's guaranteed decrease c*||d||^2, d = u - v. d and d @ d are
    computed once per iterate and serve the residual, the step s - lam*d
    (the same floats as s + lam*(v - u)) and the claim.
    """
    gamma = cfg.gamma
    lam = cfg.validate(inst.mu)
    coeff = descent_coefficient(gamma, lam, inst.mu)
    counter = CallCounter()
    prox_h = counter.wrap(inst.h.prox, "prox_h")
    prox_g = counter.wrap(inst.g.prox, "prox_g")

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
        return evaluate(it.s - lam * d), coeff * dd

    return counter, prox_h, evaluate, plain_step


def run(inst, cfg, s0):
    """Iterate the relaxed two-prox step until ||u - v|| <= tol.

    For hypoconvex instances (mu > 0) the iteration uses the raw proximal
    maps of g and h with the tightened relaxation bound, and the traced
    envelope is the raw pair's at (s, gamma), the one ``dce_eval`` gives.
    """
    counter, _, evaluate, plain_step = _relaxed_steps(inst, cfg)
    return drive("dce", inst, s0, evaluate, plain_step, lambda it: it.v, counter, cfg)


def dce_eval(inst, gamma, s):
    """Evaluate the envelope of ``inst`` at s with stepsize gamma.

    Returns the ``Iterate`` of s that the solvers' ``evaluate`` computes,
    the raw pair's proxes at (s, gamma) and envelope value, with gradient
    (u - v)/gamma. ValueError unless gamma is positive and gamma*mu < 1.
    """
    _, _, evaluate, _ = _relaxed_steps(inst, TwoProxConfig(gamma=gamma))
    it = evaluate(_as_vector(s))
    it.grad = it.gaps[0] / gamma
    return it


def sandwich_bounds(inst, gamma, s):
    """Two-sided objective bracket around the envelope value.

    Returns (lower, upper) with r = 1 - gamma*mu, each prox objective's
    modulus of strong convexity times gamma, and
    lower = phi(v) + r*||v-u||^2/(2*gamma) <= env(s) <= phi(u) - r*||v-u||^2/(2*gamma)
    = upper; infinite values pass through when a prox point leaves the
    other function's domain.
    """
    return _sandwich_at(inst, gamma, dce_eval(inst, gamma, s))


def _sandwich_at(inst, gamma, ev):
    """``sandwich_bounds`` from the evaluated ``Iterate`` of its point."""
    gap = (1.0 - gamma * inst.mu) * metric_half_sq(ev.v - ev.u, gamma)
    lower = inst.phi(ev.v)
    upper = inst.phi(ev.u)
    lower = lower + gap if lower != np.inf else np.inf
    upper = upper - gap if upper != np.inf else np.inf
    return lower, upper
