"""Three-prox splitting for objectives g - h - f with three convex parts.

The iteration runs three independent proximal evaluations per step,

    u = prox_h((delta*s - gamma*t)/(delta - gamma), gamma*delta/(delta-gamma))
    v = prox_g(s, gamma)
    z = prox_f(t, delta)

followed by the pair of relaxed updates s+ = s + lam*(v - u) and
t+ = t + mu*(u - z), both computed from the pre-update state. The update is
a diagonally scaled gradient step on the smooth surrogate

    Psi(s, t) = g_env(s) - f_env(t) - h_env((delta*s - gamma*t)/(delta-gamma))
                + ||s - t||^2 / (2*(delta - gamma)),

namely (s+, t+) = (s, t) - diag(gamma*lam, delta*mu) grad Psi(s, t).
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .envelope import dc_value, dc_values
from .prox import ProxFunction
from .reports import CallCounter, Iterate, drive


@dataclass(frozen=True)
class ThreeTermInstance:
    """Problem data for phi = g - h - f with f, g, h proper convex lsc."""

    f: ProxFunction
    g: ProxFunction
    h: ProxFunction
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        for part in (self.f, self.g, self.h):
            if part.dim is not None and part.dim != self.dim:
                raise ValueError(
                    f"{type(part).__name__} has dim {part.dim}, instance dim {self.dim}")

    def phi(self, x):
        g_val = self.g.value(x)
        if g_val == np.inf:
            return np.inf
        rest = self.h.value(x) + self.f.value(x)
        return dc_value(g_val, rest)

    def phis(self, rows):
        """``phi`` at each row of a k-by-dim array, batched where atoms allow."""
        return dc_values(self.g.values(rows),
                         self.h.values(rows) + self.f.values(rows))


@dataclass(frozen=True)
class ThreeProxConfig:
    """Stepsizes and relaxations for the three-prox iteration.

    Admissible box (boundaries rejected): 0 < gamma < 1 < delta,
    0 < lam < 2*(1 - gamma), 0 < mu < 2*(1 - 1/delta). The default
    relaxations, 0.45 each, are 0.9 times half their ranges at the default
    stepsizes: 0.9*(1 - gamma) and 0.9*(1 - 1/delta). A config with other
    stepsizes names its relaxations itself.
    """

    gamma: float = 0.5
    delta: float = 2.0
    lam: float = 0.45
    mu: float = 0.45
    tol: float = 1e-6
    max_iter: int = 1000

    def validate(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.delta > 1.0:
            raise ValueError(f"delta must exceed 1, got {self.delta}")
        if not 0.0 < self.lam < 2.0 * (1.0 - self.gamma):
            raise ValueError(
                f"lam must lie in (0, {2.0 * (1.0 - self.gamma)}), got {self.lam}")
        hi = 2.0 * (1.0 - 1.0 / self.delta)
        if not 0.0 < self.mu < hi:
            raise ValueError(f"mu must lie in (0, {hi}), got {self.mu}")

    @property
    def h_step(self):
        return self.gamma * self.delta / (self.delta - self.gamma)


def _h_point(cfg, s, t):
    return (cfg.delta * s - cfg.gamma * t) / (cfg.delta - cfg.gamma)


def _psi_from_points(inst, cfg, s, t, w, u, v, z):
    """Psi from the prox points u, v, z of (w, s, t), w the h-point of (s, t)."""
    dst = s - t
    return (inst.g.envelope_at_prox(v, s, cfg.gamma)
            - inst.f.envelope_at_prox(z, t, cfg.delta)
            - inst.h.envelope_at_prox(u, w, cfg.h_step)
            + 0.5 * float(dst.dot(dst)) / (cfg.delta - cfg.gamma))


def run3(inst, cfg, s0, t0):
    """Iterate until ||(u - v, u - z)|| <= tol or the iteration budget ends.

    The surrogate trace must be nonincreasing with the weighted guaranteed
    decrease; a violation beyond rounding slack ends the run with a
    numerical-error status.
    """
    cfg.validate()
    counter = CallCounter()
    prox_h = counter.wrap(inst.h.prox, "prox_h")
    prox_g = counter.wrap(inst.g.prox, "prox_g")
    prox_f = counter.wrap(inst.f.prox, "prox_g")  # f tallied with g
    # weighted decrease: s-block lam*(2*(1-gamma)-lam)/(gamma*(1-gamma)) on
    # ||u-v||^2, t-block mu*(2*(1-1/delta)-mu)/(delta-1) on ||u-z||^2, halved
    w_s = cfg.lam * (2.0 * (1.0 - cfg.gamma) - cfg.lam) / (cfg.gamma * (1.0 - cfg.gamma))
    w_t = cfg.mu * (2.0 * (1.0 - 1.0 / cfg.delta) - cfg.mu) / (cfg.delta - 1.0)
    h_step = cfg.h_step

    # u - v, u - z and their squared norms are computed once per iterate:
    # they serve the residual, the claim and the step, whose s-block
    # s - lam*(u - v) is the same floats as s + lam*(v - u)
    def first(s, t):
        w = _h_point(cfg, s, t)
        u = prox_h(w, h_step)
        v = prox_g(s, cfg.gamma)
        z = prox_f(t, cfg.delta)
        duv = u - v
        duz = u - z
        nuv = float(duv.dot(duv))
        nuz = float(duz.dot(duz))
        return Iterate(s, u, v, _psi_from_points(inst, cfg, s, t, w, u, v, z),
                       sqrt(nuv + nuz), t=t, z=z, gaps=(duv, nuv, duz, nuz))

    def advance(it):
        duv, nuv, duz, nuz = it.gaps
        return (first(it.s - cfg.lam * duv, it.t + cfg.mu * duz),
                0.5 * (w_s * nuv + w_t * nuz))

    return drive("three-prox", inst, [s0, t0], first, advance, lambda it: it.u,
                 counter, cfg.tol, cfg.max_iter, gamma=cfg.gamma)
