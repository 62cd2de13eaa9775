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

import numpy as np

from .envelope import env_value_from_pair
from .prox import _check_gamma_mu
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
        _check_gamma_mu(self.gamma, mu)
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
    maps of g and h with the tightened relaxation bound, and the traced
    envelope is the raw pair's at (s, gamma), the one ``dce_eval`` gives.
    """
    cfg.validate(inst.mu)
    coeff = descent_coefficient(cfg.gamma, cfg.lam, inst.mu)
    counter, _, evaluate, plain_step = _relaxed_steps(
        inst, inst.h.prox, inst.g.prox, cfg.gamma, cfg.lam,
        lambda d, dd: coeff * dd)
    return drive("dce", inst, s0, evaluate, plain_step, lambda it: it.v,
                 counter, cfg.tol, cfg.max_iter, cfg.record_trace, cfg.gamma)
