"""Three-term problems phi = g - h - f, solved as a lifted two-term pair.

Since -f(x) = min_y f*(kappa*y) - kappa*<x, y> for any kappa > 0, phi is the
infimum over y of the difference of

    G(x, y) = g(x) + f*(kappa*y),    H(x, y) = h(x) + kappa*<x, y>,

a convex G and an H that is hypoconvex with modulus kappa
(H + kappa/2 ||.||^2 = h(x) + kappa/2 ||x + y||^2 is convex). ``run3`` runs
L-BFGS on the envelope of this pair, ``lbfgs.run_lbfgs``; the relaxed
two-prox iteration on it is ``two_prox.run(lift(inst, gamma), ...)``.
The coupling is tied to the stepsize, kappa = GAMMA_KAPPA/gamma, so
gamma*kappa is the same at every stepsize and the lift is scale-covariant:
multiplying f, g and h by c and gamma by 1/c (c a power of two) leaves
every iterate's bits unchanged. With a = GAMMA_KAPPA both proxes are closed form,

    prox of gamma*H at (s, t):  x = prox_h((s - a*t)/(1 - a^2), gamma/(1 - a^2)),
                                y = t - a*x,
    prox of gamma*f*(kappa*.) at t:  p = t - a*q,  q = prox_f(t/a, gamma/a^2),

the latter by the Moreau identity, which also gives its envelope,
||t||^2/(2*gamma) minus f's envelope at t/a with stepsize gamma/a^2, from
the prox point q = (t - p)/a: no value of f* is needed.
"""

from dataclasses import dataclass, replace

import numpy as np

from .envelope import DcInstance, check_dims, dc_value
from .lbfgs import run_lbfgs
from .prox import ProxFunction
from .reports import check_start

GAMMA_KAPPA = 0.5  # gamma*kappa of the lift: its coupling is kappa = GAMMA_KAPPA/gamma
_SHRINK = 1.0 - GAMMA_KAPPA * GAMMA_KAPPA


@dataclass(frozen=True)
class ThreeTermInstance:
    """Problem data for phi = g - h - f with f, g, h proper convex lsc."""

    f: ProxFunction
    g: ProxFunction
    h: ProxFunction
    dim: int

    def __post_init__(self):
        check_dims(self.dim, (self.f, self.g, self.h))

    def phi(self, x):
        g_val = self.g.value(x)
        if g_val == np.inf:
            return np.inf
        rest = self.h.value(x) + self.f.value(x)
        return dc_value(g_val, rest)


class _LiftedG(ProxFunction):
    """G(x, y) = g(x) + f*(kappa*y), kappa = GAMMA_KAPPA/gamma at stepsize gamma."""

    def __init__(self, g, f, n):
        self.g, self.f, self.n = g, f, n

    def prox(self, x, gamma):
        n = self.n
        t = x[n:]
        q = self.f.prox(t / GAMMA_KAPPA, gamma / GAMMA_KAPPA ** 2)
        return np.concatenate((self.g.prox(x[:n], gamma), t - GAMMA_KAPPA * q))

    def envelope_at_prox(self, w, x, gamma):
        n = self.n
        t = x[n:]
        q = np.subtract(t, w[n:])
        q /= GAMMA_KAPPA  # f's prox point behind w's y-block
        return (self.g.envelope_at_prox(w[:n], x[:n], gamma)
                + 0.5 * float(t.dot(t)) / gamma
                - self.f.envelope_at_prox(q, t / GAMMA_KAPPA, gamma / GAMMA_KAPPA ** 2))


class _LiftedH(ProxFunction):
    """H(x, y) = h(x) + kappa*<x, y>, kappa = GAMMA_KAPPA/gamma at stepsize gamma."""

    def __init__(self, h, n):
        self.h, self.n = h, n
        # H's prox is an affine map of h's, so one prox of H can serve a linesearch
        self.prox_is_affine = h.prox_is_affine

    def prox(self, x, gamma):
        n = self.n
        t = x[n:]
        xs = self.h.prox((x[:n] - GAMMA_KAPPA * t) / _SHRINK, gamma / _SHRINK)
        return np.concatenate((xs, t - GAMMA_KAPPA * xs))

    def envelope_at_prox(self, w, x, gamma):
        n = self.n
        d = w - x
        return (self.h.value(w[:n]) + GAMMA_KAPPA * float(w[:n].dot(w[n:])) / gamma
                + 0.5 * float(d.dot(d)) / gamma)


@dataclass(frozen=True)
class _Lift(DcInstance):
    """The lifted pair of ``three``, whose objective is ``three``'s at the x-block."""

    three: ThreeTermInstance = None

    def phi(self, x):
        return self.three.phi(x[:self.three.dim])


def lift(inst, gamma):
    """The lifted pair of ``inst`` at stepsize gamma: coupling and modulus
    kappa = GAMMA_KAPPA/gamma."""
    n = inst.dim
    return _Lift(g=_LiftedG(inst.g, inst.f, n), h=_LiftedH(inst.h, n), dim=2 * n,
                 mu=GAMMA_KAPPA / gamma, three=inst)


def run3(inst, cfg, s0):
    """Solve ``inst`` with ``lbfgs.run_lbfgs`` on its lift at cfg.gamma, from (s0, 0).

    The lift's modulus is its coupling kappa = GAMMA_KAPPA/cfg.gamma, so the
    relaxation cfg.lam, which enters only the fallback step, must stay below
    2*(1 - GAMMA_KAPPA) = 1; left None it is 0.9*(1 - GAMMA_KAPPA) = 0.45.
    The report is the lifted run's, named three-prox: its trace's env and
    residual are the lift's, its phi is ``inst``'s at v's x-block, and
    final_s, final_u and final_v are x-blocks, points of ``inst``'s space.
    """
    cfg.validate()  # gamma is checked before the coupling divides by it
    n = inst.dim
    s0 = check_start(s0, n)  # in inst's dimension, before the lift doubles it
    report = run_lbfgs(lift(inst, cfg.gamma), cfg, np.concatenate([s0, np.zeros(n)]))
    return replace(report, solver="three-prox", final_s=report.final_s[:n],
                   final_u=report.final_u[:n], final_v=report.final_v[:n])
