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

The module also carries the lifted two-function reformulation on the
doubled space (used as a test oracle only): G(x, y) = g(x) + conj(f)(y)
and H(x, y) = h(x) + <x, y>, iterated by the diagonal-metric two-prox
solver with stepsize diag(gamma, 1/delta), relaxation diag(lam, mu) and
unit quadratic shift.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .checks import subgradient_screen
from .envelope import DcInstance, dc_value, dc_values
from .prox import (
    CapabilityError,
    ProxFunction,
    _as_vector,
    prox_conjugate_scaled,
    validate_diagonal,
)
from .reports import CallCounter, Iterate, drive
from .two_prox import run_diag


@dataclass(frozen=True)
class ThreeTermInstance:
    """Problem data for phi = g - h - f with f, g, h proper convex lsc."""

    f: ProxFunction
    g: ProxFunction
    h: ProxFunction
    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
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
    0 < lam < 2*(1 - gamma), 0 < mu < 2*(1 - 1/delta).
    """

    gamma: float = 0.5
    delta: float = 2.0
    lam: float = 0.45
    mu: float = 0.45
    tol: float = 1e-6
    max_iter: int = 1000
    record_trace: bool = True
    record_iterates: bool = False

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
        if self.tol < 0 or self.max_iter < 1:
            raise ValueError("tol must be nonnegative and max_iter positive")

    @property
    def h_step(self):
        return self.gamma * self.delta / (self.delta - self.gamma)


def default_config(gamma=0.5, delta=2.0, safety=0.9, **kw):
    """Config with relaxations at ``safety`` times half the admissible range."""
    return ThreeProxConfig(gamma=gamma, delta=delta,
                           lam=safety * (1.0 - gamma),
                           mu=safety * (1.0 - 1.0 / delta), **kw)


def _h_point(cfg, s, t):
    return (cfg.delta * s - cfg.gamma * t) / (cfg.delta - cfg.gamma)


def three_prox_step(inst, cfg, s, t):
    """One iteration; returns (s_plus, t_plus, u, v, z)."""
    cfg.validate()
    s = _as_vector(s)
    t = _as_vector(t)
    u = inst.h.prox(_h_point(cfg, s, t), cfg.h_step)
    v = inst.g.prox(s, cfg.gamma)
    z = inst.f.prox(t, cfg.delta)
    return s + cfg.lam * (v - u), t + cfg.mu * (u - z), u, v, z


def psi_value(inst, cfg, s, t):
    """The four-term surrogate value at (s, t)."""
    cfg.validate()
    s = _as_vector(s)
    t = _as_vector(t)
    w = _h_point(cfg, s, t)
    u = inst.h.prox(w, cfg.h_step)
    v = inst.g.prox(s, cfg.gamma)
    z = inst.f.prox(t, cfg.delta)
    return _psi_from_points(inst, cfg, s, t, w, u, v, z)


def _psi_from_points(inst, cfg, s, t, w, u, v, z):
    """Psi from the prox points u, v, z of (w, s, t), w the h-point of (s, t)."""
    dst = s - t
    return (inst.g.envelope_at_prox(v, s, cfg.gamma)
            - inst.f.envelope_at_prox(z, t, cfg.delta)
            - inst.h.envelope_at_prox(u, w, cfg.h_step)
            + 0.5 * float(dst @ dst) / (cfg.delta - cfg.gamma))


def psi_gradient_identity_check(inst, cfg, s, t, fd_step=None):
    """Deviation between the update and the scaled finite-difference gradient.

    Computes grad Psi by central differences and returns
    ||(s+, t+) - ((s, t) - diag(gamma*lam, delta*mu) grad_fd)||.
    """
    cfg.validate()
    s = _as_vector(s)
    t = _as_vector(t)
    n = s.shape[0]
    x = np.concatenate([s, t])
    if fd_step is None:
        fd_step = 1e-5 * (1.0 + float(np.linalg.norm(x)))

    def psi(xv):
        return psi_value(inst, cfg, xv[:n], xv[n:])

    grad_fd = np.empty(2 * n)
    for i in range(2 * n):
        e = np.zeros(2 * n)
        e[i] = fd_step
        grad_fd[i] = (psi(x + e) - psi(x - e)) / (2.0 * fd_step)
    s_plus, t_plus, _, _, _ = three_prox_step(inst, cfg, s, t)
    predicted = x - np.concatenate([cfg.gamma * cfg.lam * grad_fd[:n],
                                    cfg.delta * cfg.mu * grad_fd[n:]])
    return float(np.linalg.norm(np.concatenate([s_plus, t_plus]) - predicted))


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
        nuv = float(duv @ duv)
        nuz = float(duz @ duz)
        return Iterate(s, u, v, _psi_from_points(inst, cfg, s, t, w, u, v, z),
                       sqrt(nuv + nuz), t=t, z=z, gaps=(duv, nuv, duz, nuz))

    def advance(it):
        duv, nuv, duz, nuz = it.gaps
        return (first(it.s - cfg.lam * duv, it.t + cfg.mu * duz),
                0.5 * (w_s * nuv + w_t * nuz))

    return drive("three-prox", inst, [s0, t0], first, advance, lambda it: it.u,
                 counter, cfg.tol, cfg.max_iter,
                 cfg.record_trace, cfg.record_iterates, cfg.gamma,
                 {"delta": cfg.delta, "lam": cfg.lam, "mu": cfg.mu})


def stationarity_certificate(inst, cfg, report, sample_points, slack):
    """Largest violation of the three subgradient inequalities at the limit.

    At convergence, xi_h = (w - u) / h_step, xi_g = (s - u)/gamma and
    xi_f = (t - u)/delta should be subgradients of h, g, f at u; each is
    screened against its defining inequality at the given sample points.
    Infinite function values at a sample are skipped (the inequality is
    vacuous there).
    """
    s, t, u = report.final_s, report.final_t, report.final_u
    w = _h_point(cfg, s, t)
    candidates = [(inst.h, u, (w - u) / cfg.h_step),
                  (inst.g, u, (s - u) / cfg.gamma),
                  (inst.f, u, (t - u) / cfg.delta)]
    return max(0.0, subgradient_screen(candidates, sample_points, slack))


# ---------------------------------------------------------------------------
# lifted two-function oracle (test-only reformulation on the doubled space)


class ConjugatePart(ProxFunction):
    """Fenchel conjugate of an atom, proxed through the Moreau identity.

    The value is available only for atoms with a closed-form conjugate
    (the quadratics ScaledSquare and Quadratic); that is all the lifted
    oracle needs.
    """

    def __init__(self, f):
        self.f = f
        self.dim = f.dim

    def value(self, y):
        return self.f.conjugate_value(y)

    def prox(self, y, sigma_step):
        return prox_conjugate_scaled(self.f, sigma_step, y)


class LiftedCoupling(ProxFunction):
    """H(x, y) = h(x) + <x, y> on the doubled space.

    Nonconvex but convex after adding ||(x, y)||^2/2; its diagonal-metric
    prox has a closed form whenever the metric is uniform on each block
    with product of the two block stepsizes below one.
    """

    def __init__(self, h, n):
        self.h = h
        self.n = int(n)
        self.dim = 2 * self.n

    def _split(self, x):
        x = _as_vector(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"expected dimension {self.dim}")
        return x[:self.n], x[self.n:]

    def value(self, x):
        xs, ys = self._split(x)
        h_val = self.h.value(xs)
        return np.inf if h_val == np.inf else h_val + float(xs @ ys)

    def prox(self, x, gamma):
        return self.prox_diag(x, np.full(self.dim, float(gamma)))

    @property
    def supports_diag(self):
        return True

    def prox_diag(self, x, entries):
        entries = validate_diagonal(entries, self.dim)
        a_blk, b_blk = entries[:self.n], entries[self.n:]
        if not (np.all(a_blk == a_blk[0]) and np.all(b_blk == b_blk[0])):
            raise CapabilityError("coupling prox needs blockwise-uniform stepsizes")
        a, b = float(a_blk[0]), float(b_blk[0])
        if a * b >= 1.0:
            raise ValueError(f"coupling prox needs a*b < 1, got {a * b}")
        s_blk, t_blk = self._split(x)
        xs = self.h.prox((s_blk - a * t_blk) / (1.0 - a * b), a / (1.0 - a * b))
        ys = t_blk - b * xs
        return np.concatenate([xs, ys])


def lifted_pair(inst):
    """The (G, H) two-function reformulation of a three-term instance."""
    from .prox import BlockSeparable
    g_lift = BlockSeparable([(inst.g, inst.dim), (ConjugatePart(inst.f), inst.dim)])
    h_lift = LiftedCoupling(inst.h, inst.dim)
    return DcInstance(g=g_lift, h=h_lift, dim=2 * inst.dim, mu=1.0,
                      name="lifted")


def run3_via_lifted(inst, cfg, s0, t0, record_iterates=False):
    """Run the diagonal two-prox solver on the lifted pair.

    Starts at (s0, t0/delta) with stepsize diag(gamma, 1/delta), relaxation
    diag(lam, mu) and unit shift; the s-block of its iterates reproduces the
    direct three-prox recursion.
    """
    cfg.validate()
    n = inst.dim
    lifted = lifted_pair(inst)
    gamma_diag = np.concatenate([np.full(n, cfg.gamma), np.full(n, 1.0 / cfg.delta)])
    lam_diag = np.concatenate([np.full(n, cfg.lam), np.full(n, cfg.mu)])
    start = np.concatenate([_as_vector(s0), _as_vector(t0) / cfg.delta])
    return run_diag(lifted, gamma_diag, lam_diag, start, m_diag=np.ones(2 * n),
                    tol=cfg.tol, max_iter=cfg.max_iter,
                    record_iterates=record_iterates)
