"""Reference implementations that tests compare the product against.

``CATALOGUE_ANSWERS`` holds, for each entry of ``dcprox.synthetic_catalogue``
by name, what tests check the entry against: its stationary points in a
grid window, the limit reached from its start, the optimal value where one
exists, whether the objective is coercive, the relaxation the criteria run
it with, and the solvers that accept it.

The recording atom logs the argument of every prox call an atom gets; the
relaxed solvers prox g once at each evaluated iterate (and the three-prox
recursion f once at its second block), so the log is the iterate sequence
that tests compare bit for bit.

The three-prox recursion is the paper's three-term iteration, a scaled
gradient step on the surrogate Psi with its own stepsize box
(``ThreeProxConfig``); ``dcprox.run3`` solves three-term problems on a
lifted pair instead, and the recursion is the reference that criteria 1, 5
and 9 test. ``run3_psi`` runs it with the package's ``drive``; the helpers take
one step, evaluate Psi at a point, and measure how far the update lies from
a finite-difference gradient step on Psi (criterion 1).

The lifted oracle is the two-function reformulation of a three-term
instance on the doubled space (criterion 5): G(x, y) = g(x) + conj(f)(y)
and H(x, y) = h(x) + <x, y>, iterated by the diagonal-metric two-prox
solver with stepsize diag(gamma, 1/delta), relaxation diag(lam, mu) and
unit quadratic shift.

The certificates check the paper's guarantees on a finished run:
``residual_rate_check`` the telescoped descent behind residual
summability, and ``common_subgradient_gap`` (two-prox) and
``stationarity_certificate`` (three-prox) the subgradient inequalities at
the limit, both screened at sample points by ``subgradient_screen``.
The forward-backward forms are generic in a smooth f and an atom g: the
Moreau value of an atom, the smooth view of a matrix, -f, the
forward-backward envelope (FBE) of f + g, ``envelope_of_smooth_pair``, the
envelope of (g, -f) from f's backward solve, and
``dce_fbe_equivalence_check``, the largest gap between the two after the
change of variable. ``dcprox.checks.check_fbe`` is the last one written
out for an instance's own pair, with f = -h; it must return the same
floats.

``prox_diag`` is the prox of an atom under a diagonal metric (a vector of
stepsizes), in closed form for the package's linear, square, quadratic and
block-separable atoms; the package's atoms take a scalar stepsize only.
``run_diag`` is the two-prox iteration under diagonal stepsize and
relaxation vectors, the package's relaxed step with ``prox_diag`` in place
of each prox, driven by the package's driver; the lifted oracle runs on it.

The reference sparse-PCA builder is the straightforward construction the
lean one in ``dcprox.problems`` must reproduce byte for byte: int64
column lists, their concatenation, a CSR copy of A and one fresh dense row
block per step, whose product is numpy's B.T @ B. The lean build holds A
only as row-block pieces and frees each once its block is filled, so
``assemble_a`` puts A together from the pieces and ``spca_build_with_a``
runs the lean build with A assembled as the draws leave it.
"""

import dataclasses
from math import sqrt
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import blas

from dcprox import (
    BlockSeparable,
    CapabilityError,
    DcInstance,
    Linear,
    ProxFunction,
    Quadratic,
    RunReport,
    ScaledSquare,
    SmoothFunction,
    TwoProxConfig,
    problems,
    smooth_view,
)
from dcprox.checks import finite_difference_gradient
from dcprox.envelope import env_value_from_pair
from dcprox.problems import _rng_for
from dcprox.prox import _apply_inverse, _as_vector, _check_gamma, _spd_inverse
from dcprox.reports import CallCounter, Iterate, drive
from dcprox.three_prox import ThreeTermInstance

# ---------------------------------------------------------------------------
# the synthetic catalogue's reference answers


@dataclasses.dataclass(frozen=True)
class Answers:
    """What one synthetic catalogue entry is checked against.

    ``stationary`` lists all stationary points inside the grid oracle's
    ``window``; ``expected_limit`` is the one reached from the entry's
    start, and ``phi_star`` the optimal value (None: unbounded below).
    ``solvers`` are the names ``dcprox solve`` accepts for the entry; any
    other name of ``cli.SOLVERS`` is rejected. ``lam`` is the relaxation the
    criteria run dce with.
    """

    stationary: tuple
    expected_limit: np.ndarray
    phi_star: Optional[float]
    window: tuple
    solvers: tuple
    coercive: bool = True
    lam: float = 1.0


def _arr(*xs):
    return np.array(xs, dtype=float)


_TWO_TERM = ("dce", "dce-lbfgs", "fbs", "dca", "drs")
_NO_DCA = ("dce", "dce-lbfgs", "fbs", "drs")  # no subproblem solver

# entry name -> Answers, in catalogue order
CATALOGUE_ANSWERS = {
    "quad-linear-1d": Answers(
        stationary=(_arr(1.0),), expected_limit=_arr(1.0), phi_star=-0.5,
        window=(-4.0, 6.0), solvers=_TWO_TERM),
    "abs-quad-1d": Answers(
        stationary=(_arr(-1.0), _arr(0.0), _arr(1.0)), expected_limit=_arr(0.0),
        phi_star=None, window=(-2.5, 2.5), solvers=_NO_DCA, coercive=False),
    "abs-hypo-1d": Answers(
        stationary=(_arr(0.0),), expected_limit=_arr(0.0), phi_star=0.0,
        window=(-3.0, 3.0), solvers=_NO_DCA, lam=0.9),
    "separable-2d": Answers(
        stationary=(_arr(1.0, 1.0),), expected_limit=_arr(1.0, 1.0), phi_star=-1.5,
        window=(-3.0, 4.0), solvers=_TWO_TERM),
    "three-quad-1d": Answers(
        stationary=(_arr(0.0),), expected_limit=_arr(0.0), phi_star=0.0,
        window=(-3.0, 3.0), solvers=("three-prox",)),
}


# ---------------------------------------------------------------------------
# iterate recording


class RecordingAtom:
    """Forwards an atom and logs a copy of each ``prox``/``prox_diag`` argument."""

    def __init__(self, atom):
        self._atom = atom
        self.log = []

    def prox(self, x, gamma):
        self.log.append(np.array(x, dtype=float))
        return self._atom.prox(x, gamma)

    def prox_diag(self, x, entries):
        self.log.append(np.array(x, dtype=float))
        return prox_diag(self._atom, x, entries)

    def __getattr__(self, name):
        return getattr(self._atom, name)


def recording(inst):
    """(``inst`` with its g atom, and f on a three-term instance, wrapped in
    RecordingAtom; a function returning the iterates they logged so far).

    The iterates are the s at which g was proxed, or the (s, t) pairs of g
    and f. The relaxed solvers prox g once per evaluated iterate; L-BFGS
    also proxes g at each linesearch trial. The three-prox recursion proxes
    f at t; ``dcprox.run3`` proxes g at the x-block and f at the y-block
    over GAMMA_KAPPA.
    """
    g = RecordingAtom(inst.g)
    if isinstance(inst, ThreeTermInstance):
        f = RecordingAtom(inst.f)
        return dataclasses.replace(inst, g=g, f=f), lambda: list(zip(g.log, f.log))
    return dataclasses.replace(inst, g=g), lambda: list(g.log)


# ---------------------------------------------------------------------------
# certificates


def residual_rate_check(report):
    """Verify the telescoped-descent consequences on a completed run.

    Checks that the summed per-step decrements stay within the observed
    envelope gap (for scalar runs this is the bound
    sum ||u-v||^2 <= 2*gamma*(env0 - min env)/(lam*(2-lam))), and that
    k * min residual^2 over the first k steps never exceeds the running sum
    of squared residuals. Returns True when both hold.
    """
    if not report.trace:
        return True
    envs = report.trace.env
    gap = envs[0] - min(envs)
    total_decr = sum(report.trace.decrement)
    budget = gap + 1e-10 * (1.0 + abs(gap) + abs(envs[0]))
    if total_decr > budget:
        return False
    running = 0.0
    min_sq = np.inf
    for k, residual in enumerate(report.trace.residual[:-1], start=1):
        r2 = residual ** 2
        running += r2
        min_sq = min(min_sq, r2)
        if k * min_sq > running * (1.0 + 1e-12) + 1e-300:
            return False
    return True


def phi_upper_bound(inst, gamma, env, residual):
    """The sandwich bound on an envelope run's objective at a traced point,
    phi(v) <= env - (1 - gamma*mu)*residual**2/(2*gamma), with v the
    point's prox_g output and mu the modulus of ``inst``; plus a rounding
    slack of 1e-10*(1 + |env|)."""
    return (env - (1.0 - gamma * inst.mu) * residual * residual / (2.0 * gamma)
            + 1e-10 * (1.0 + abs(env)))


def subgradient_screen(candidates, sample_points, slack):
    """Largest violation of fn(z) >= fn(x) + <xi, z - x> over the samples.

    ``candidates`` lists (fn, x, xi) triples; each violation is reduced by
    ``slack`` per unit distance, slack*(1 + ||z - x||). Samples where fn is
    infinite are skipped (the inequality is vacuous there); an infinite
    fn(x) returns inf. With no finite sample the result is -inf.
    """
    worst = -np.inf
    for fn, x, xi in candidates:
        base = fn.value(x)
        if base == np.inf:
            return np.inf
        for z in sample_points:
            val = fn.value(z)
            if val == np.inf:
                continue
            gap = base + float(xi.dot(z - x)) - val
            worst = max(worst, gap - slack * (1.0 + float(np.linalg.norm(z - x))))
    return worst


def common_subgradient_gap(inst, gamma, s, u, v, sample_points, slack):
    """Violation of the approximate-stationarity certificate at (s, u, v).

    xi = (s - u)/gamma should be a subgradient of g at v (exactly it is one
    up to ||u - v||/gamma) and of h at u; screens both subgradient
    inequalities at the samples with the given slack per unit distance.
    """
    s, u, v = _as_vector(s), _as_vector(u), _as_vector(v)
    xi = (s - u) / gamma
    return subgradient_screen([(inst.g, v, xi), (inst.h, u, xi)], sample_points, slack)


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
# forward-backward forms


def moreau_value(f, gamma, x):
    """Envelope value f(p) + ||p - x||^2/(2*gamma) at p = prox(x, gamma)."""
    _check_gamma(gamma)
    x = _as_vector(x)
    return f.envelope_at_prox(f.prox(x, gamma), x, gamma)


def quadratic_smooth(q):
    """``smooth_view`` of 0.5 x'Qx, Q a symmetric matrix, with its
    eigenvalue range computed."""
    atom = Quadratic(q)
    eigs = np.linalg.eigvalsh(atom.sigma)
    return smooth_view(atom, (float(eigs.min()), float(eigs.max())))


def negate_smooth(f):
    """The smooth function -f, with the closed-form backward solve of f."""
    # u + gamma*grad f(u) = s is the backward solve of f at -gamma; for a
    # quadratic atom that reads the inverse its prox at gamma caches
    return SmoothFunction(value=lambda x: -f.value(x),
                          grad=lambda x: -f.grad(x),
                          lipschitz=f.lipschitz,
                          backward=lambda s, gamma: f.backward(s, -gamma))


def fbe_value(f, g, gamma, u):
    """Forward-backward envelope of f + g at u for gamma < 1/L_f.

    f(u) - (gamma/2)||grad f(u)||^2 + Moreau envelope of g at the forward
    point u - gamma*grad f(u).
    """
    _check_gamma(gamma)
    if f.lipschitz > 0 and gamma >= 1.0 / f.lipschitz:
        raise ValueError(f"fbe needs gamma < 1/L, got gamma={gamma}, L={f.lipschitz}")
    u = _as_vector(u)
    gf = f.grad(u)
    forward = u - gamma * gf
    return f.value(u) - 0.5 * gamma * float(gf.dot(gf)) + moreau_value(g, gamma, forward)


def _pair_envelope_at(f, g, gamma, s, u):
    """Envelope of (g, -f) at s from the backward point u of s: the Moreau
    value of -f is taken at u."""
    d = u - s
    h_env = -f.value(u) + 0.5 * float(d.dot(d)) / gamma
    return moreau_value(g, gamma, s) - h_env


def envelope_of_smooth_pair(f, g, gamma, s):
    """Envelope value of (g, -f) at s when -f plays the concave part.

    Valid for any smooth f with gamma below the backward-prox range; the
    Moreau value of -f is computed through the backward prox point.
    """
    _check_gamma(gamma)
    s = _as_vector(s)
    return _pair_envelope_at(f, g, gamma, s, f.backward(s, gamma))


def dce_fbe_equivalence_check(f, g, gamma, points):
    """Max deviation |env(s) - fbe(backward(s))| over the sample points.

    The envelope of (g, -f) and the forward-backward envelope of f + g
    coincide after the nonlinear change of variable u = backward prox of s;
    this returns the largest absolute mismatch observed.
    """
    _check_gamma(gamma)
    worst = 0.0
    for s in points:
        s = _as_vector(s)
        u = f.backward(s, gamma)
        env = _pair_envelope_at(f, g, gamma, s, u)
        worst = max(worst, abs(env - fbe_value(f, g, gamma, u)))
    return worst


# ---------------------------------------------------------------------------
# diagonal metric


def validate_diagonal(entries, dim=None):
    """Validate a diagonal-stepsize vector: strictly positive, right length."""
    entries = _as_vector(entries)
    if dim is not None and entries.shape != (dim,):
        raise ValueError(f"diagonal stepsize has shape {entries.shape}, expected ({dim},)")
    if not np.all(entries > 0):
        raise ValueError("diagonal stepsize entries must all be positive")
    return entries


DIAG_ATOMS = (Linear, ScaledSquare, Quadratic, BlockSeparable)


def prox_diag(atom, x, entries):
    """Prox of ``atom`` under the diagonal metric G = diag(entries):
    argmin_w atom(w) + sum_i (w_i - x_i)^2 / (2*entries_i).

    An atom with a ``prox_diag`` method of its own (the recording wrapper,
    the lifted coupling) takes it. ``DIAG_ATOMS`` have closed forms; a
    block-separable atom proxes each block with its own closed form, or,
    for any other atom, with the scalar prox where the block's entries are
    all equal. Anything else is a CapabilityError.
    """
    if hasattr(atom, "prox_diag"):
        return atom.prox_diag(x, entries)
    if not isinstance(atom, DIAG_ATOMS):
        raise CapabilityError(f"{type(atom).__name__} has no diagonal-metric prox")
    if isinstance(atom, ScaledSquare):
        entries = validate_diagonal(entries)
        scale = 1.0 + entries * atom.curvature
        if np.any(scale <= 0):
            raise ValueError("prox undefined for some diagonal entries")
        return _as_vector(x) / scale
    entries = validate_diagonal(entries, atom.dim)
    if isinstance(atom, Linear):
        return _as_vector(x) - entries * atom.c
    if isinstance(atom, Quadratic):
        # (I + G*Sigma) w = x  <=>  (inv(G) + Sigma) w = inv(G) x, SPD system
        if np.all(entries == entries[0]):
            return atom.prox(x, float(entries[0]))
        return _apply_inverse(_spd_inverse(np.diag(1.0 / entries) + atom.sigma),
                              _as_vector(x) / entries)
    x = atom._blocks(x)
    out = np.empty_like(x)
    for part, a, b in atom.parts:
        blk = entries[a:b]
        if isinstance(part, DIAG_ATOMS):
            out[a:b] = prox_diag(part, x[a:b], blk)
        elif np.all(blk == blk[0]):
            out[a:b] = part.prox(x[a:b], float(blk[0]))
        else:
            raise CapabilityError(
                f"{type(part).__name__} block needs a uniform diagonal stepsize")
    return out


def run_diag(inst, gamma_diag, lam_diag, s0, m_diag=None, tol=1e-6,
             max_iter=1000, record_trace=True):
    """Two-prox iteration under diagonal stepsize and relaxation vectors.

    ``m_diag`` is the diagonal quadratic shift making both functions convex
    (entries may have any sign; defaults to zero). Admissibility:
    0 < lam_diag < 2*(1 - gamma_diag*m_diag) elementwise. ``prox_diag``
    must cover the instance's atoms (blockwise-uniform fallbacks included);
    descent is enforced in the correspondingly weighted norm.
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
    counter = CallCounter()
    prox_h = counter.wrap(lambda x: prox_diag(inst.h, x, gamma_diag), "prox_h")
    prox_g = counter.wrap(lambda x: prox_diag(inst.g, x, gamma_diag), "prox_g")

    def evaluate(s):
        u, v = prox_h(s), prox_g(s)
        d = u - v
        return Iterate(s, u, v, env_value_from_pair(inst, gamma_diag, s, u, v),
                       sqrt(float(d.dot(d))))

    def plain_step(it):
        d = it.u - it.v
        return evaluate(it.s - lam_diag * d), 0.5 * float(np.sum(weight * d * d))

    run_cfg = TwoProxConfig(gamma=float(gamma_diag[0]), tol=tol, max_iter=max_iter,
                            record_trace=record_trace)
    return drive("dce-diag", inst, s0, evaluate, plain_step, lambda it: it.v,
                 counter, run_cfg)


# ---------------------------------------------------------------------------
# reference sparse-PCA builder


def reference_spca_data(n, seed):
    """A (CSC), Sigma = A'A and s0 of (n, seed), built the plain way: the
    same draws, then Sigma from the dense row blocks of n rows of a CSR A,
    each added in block order by the same SYRK (upper triangle of an
    F-ordered Sigma, beta = 1), and the triangle mirrored."""
    rng = _rng_for(n, seed)
    m = 20 * n
    rows, vals = [], []
    for _ in range(n):
        rows.append(np.nonzero(rng.random(m) < 0.1)[0])
        vals.append(rng.standard_normal(rows[-1].size))
    a = sparse.csc_matrix((np.concatenate(vals), np.concatenate(rows),
                           np.cumsum([0] + [r.size for r in rows])), shape=(m, n))
    a_rows = a.tocsr()
    upper = np.zeros((n, n), order="F")
    for lo in range(0, m, n):
        upper = blas.dsyrk(1.0, a_rows[lo:lo + n].toarray().T, beta=1.0, c=upper,
                           lower=0, overwrite_c=1)
    sigma = np.triu(upper) + np.triu(upper, 1).T
    s0 = rng.standard_normal(n)
    s0 /= np.linalg.norm(s0)
    return a, sigma, s0


def assemble_a(pieces, edges):
    """A (CSC) from the row-block pieces (indptr, local rows, values) of
    ``problems._draw_a``: each column's entries of every block, in row order."""
    n = len(pieces[0][0]) - 1
    cols = np.concatenate([np.repeat(np.arange(n), np.diff(indptr)) for indptr, _, _ in pieces])
    rows = np.concatenate([rows.astype(np.int64) + lo for (_, rows, _), lo in zip(pieces, edges)])
    vals = np.concatenate([vals for _, _, vals in pieces])
    order = np.argsort(cols, kind="stable")  # blocks stay in row order within a column
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    return sparse.csc_matrix((vals[order], rows[order], indptr), shape=(edges[-1], n))


def spca_build_with_a(n, seed):
    """(A, Sigma, s0, pieces' row-index dtypes) of the lean build of (n, seed),
    A assembled from its pieces as the draws leave them, before the Gram
    consumes them."""
    draw, seen = problems._draw_a, {}

    def drawn(rng, m, width, edges):
        pieces = draw(rng, m, width, edges)
        seen["a"] = assemble_a(pieces, edges)
        seen["dtypes"] = [(rows.dtype, vals.dtype) for _, rows, vals in pieces]
        return pieces

    problems._draw_a = drawn
    try:
        sigma, s0 = problems._generate_spca_data(n, seed)
    finally:
        problems._draw_a = draw
    return seen["a"], sigma, s0, seen["dtypes"]


# ---------------------------------------------------------------------------
# the three-prox recursion


@dataclasses.dataclass(frozen=True)
class ThreeProxConfig:
    """Stepsizes and relaxations for the three-prox recursion.

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


@dataclasses.dataclass
class PsiReport(RunReport):
    """A ``run3_psi`` report: the first block s and u, v as for the other
    solvers, plus the second block t and f's prox point z."""

    final_t: np.ndarray = None
    final_z: np.ndarray = None


@dataclasses.dataclass(frozen=True)
class _Stacked:
    """What ``drive`` reads of a three-term instance run on stacked points
    (s, t): their dimension, and the objective at the first block."""

    three: ThreeTermInstance

    @property
    def dim(self):
        return 2 * self.three.dim

    def phi(self, x):
        return self.three.phi(x[:self.three.dim])


def run3_psi(inst, cfg, s0, t0):
    """Iterate the three-prox recursion until ||(u - v, u - z)|| <= tol or the
    iteration budget ends.

    Each step runs three proximal evaluations,

        u = prox_h((delta*s - gamma*t)/(delta - gamma), gamma*delta/(delta-gamma))
        v = prox_g(s, gamma),  z = prox_f(t, delta),

    and the relaxed updates s+ = s + lam*(v - u), t+ = t + mu*(u - z), both
    from the pre-update state: (s+, t+) = (s, t) - diag(gamma*lam, delta*mu)
    grad Psi(s, t) on the smooth surrogate

        Psi(s, t) = g_env(s) - f_env(t) - h_env((delta*s - gamma*t)/(delta-gamma))
                    + ||s - t||^2 / (2*(delta - gamma)).

    ``drive`` runs it on the stacked point (s, t), whose prox pair is
    ((u, u), (v, z)). The Psi trace must be nonincreasing with the weighted
    guaranteed decrease; a violation beyond rounding slack ends the run with
    a numerical-error status. prox_f is tallied with prox_g.
    """
    cfg.validate()
    n = inst.dim
    counter = CallCounter()
    prox_h = counter.wrap(inst.h.prox, "prox_h")
    prox_g = counter.wrap(inst.g.prox, "prox_g")
    prox_f = counter.wrap(inst.f.prox, "prox_g")
    # weighted decrease: s-block lam*(2*(1-gamma)-lam)/(gamma*(1-gamma)) on
    # ||u-v||^2, t-block mu*(2*(1-1/delta)-mu)/(delta-1) on ||u-z||^2, halved
    w_s = cfg.lam * (2.0 * (1.0 - cfg.gamma) - cfg.lam) / (cfg.gamma * (1.0 - cfg.gamma))
    w_t = cfg.mu * (2.0 * (1.0 - 1.0 / cfg.delta) - cfg.mu) / (cfg.delta - 1.0)

    def first(x):
        s, t = x[:n], x[n:]
        w = _h_point(cfg, s, t)
        u = prox_h(w, cfg.h_step)
        v = prox_g(s, cfg.gamma)
        z = prox_f(t, cfg.delta)
        duv = u - v
        duz = u - z
        nuv = float(duv.dot(duv))
        nuz = float(duz.dot(duz))
        return Iterate(x, np.concatenate([u, u]), np.concatenate([v, z]),
                       _psi_from_points(inst, cfg, s, t, w, u, v, z),
                       sqrt(nuv + nuz), gaps=(duv, nuv, duz, nuz))

    def advance(it):
        duv, nuv, duz, nuz = it.gaps
        step = np.concatenate([it.s[:n] - cfg.lam * duv, it.s[n:] + cfg.mu * duz])
        return first(step), 0.5 * (w_s * nuv + w_t * nuz)

    start = np.concatenate([_as_vector(s0), _as_vector(t0)])
    report = drive("three-prox", _Stacked(inst), start, first, advance,
                   lambda it: it.u, counter,
                   TwoProxConfig(gamma=cfg.gamma, tol=cfg.tol, max_iter=cfg.max_iter))
    return PsiReport(**{**vars(report), "final_s": report.final_s[:n],
                        "final_u": report.final_u[:n], "final_v": report.final_v[:n]},
                     final_t=report.final_s[n:], final_z=report.final_v[n:])


def _prox_points(inst, cfg, s, t):
    """(w, u, v, z): the h-point w of (s, t) and the prox points of (w, s, t)."""
    cfg.validate()
    w = _h_point(cfg, s, t)
    return (w, inst.h.prox(w, cfg.h_step), inst.g.prox(s, cfg.gamma),
            inst.f.prox(t, cfg.delta))


def three_prox_step(inst, cfg, s, t):
    """One iteration; returns (s_plus, t_plus, u, v, z)."""
    s, t = _as_vector(s), _as_vector(t)
    _, u, v, z = _prox_points(inst, cfg, s, t)
    return s + cfg.lam * (v - u), t + cfg.mu * (u - z), u, v, z


def psi_value(inst, cfg, s, t):
    """The four-term surrogate value at (s, t)."""
    s, t = _as_vector(s), _as_vector(t)
    return _psi_from_points(inst, cfg, s, t, *_prox_points(inst, cfg, s, t))


def psi_gradient_identity_check(inst, cfg, s, t):
    """Deviation between the update and the scaled finite-difference gradient.

    Computes grad Psi by central differences with step 1e-5*(1 + ||(s, t)||)
    and returns ||(s+, t+) - ((s, t) - diag(gamma*lam, delta*mu) grad_fd)||.
    """
    s, t = _as_vector(s), _as_vector(t)
    n = s.shape[0]
    x = np.concatenate([s, t])
    grad_fd = finite_difference_gradient(
        lambda xv: psi_value(inst, cfg, xv[:n], xv[n:]), x,
        1e-5 * (1.0 + float(np.linalg.norm(x))))
    s_plus, t_plus, _, _, _ = three_prox_step(inst, cfg, s, t)
    predicted = x - np.concatenate([cfg.gamma * cfg.lam * grad_fd[:n],
                                    cfg.delta * cfg.mu * grad_fd[n:]])
    return float(np.linalg.norm(np.concatenate([s_plus, t_plus]) - predicted))


# ---------------------------------------------------------------------------
# lifted two-function oracle


def prox_conjugate_scaled(f, sigma, t):
    """Prox of sigma*conj(f) at t for any sigma > 0, by the Moreau identity

    prox_{sigma*conj(f)}(t) = t - sigma * prox_{f/sigma}(t/sigma).
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    t = _as_vector(t)
    return t - sigma * f.prox(t / sigma, 1.0 / sigma)


class ConjugatePart(ProxFunction):
    """Fenchel conjugate of an atom, proxed through the Moreau identity.

    The value is available only for the quadratics with a closed-form
    conjugate: ScaledSquare with positive curvature and Quadratic with
    invertible Sigma. That is all the lifted oracle needs.
    """

    def __init__(self, f):
        self.f = f
        self.dim = f.dim

    def value(self, y):
        y = _as_vector(y)
        if isinstance(self.f, ScaledSquare) and self.f.curvature > 0:
            return 0.5 * float(y @ y) / self.f.curvature
        if isinstance(self.f, Quadratic):
            try:
                return 0.5 * float(y @ np.linalg.solve(self.f.sigma, y))
            except np.linalg.LinAlgError as exc:
                raise CapabilityError("conjugate value needs invertible Sigma") from exc
        raise CapabilityError(f"{type(self.f).__name__} has no closed-form conjugate")

    def prox(self, y, sigma_step):
        return prox_conjugate_scaled(self.f, sigma_step, y)


class LiftedCoupling(ProxFunction):
    """H(x, y) = h(x) + <x, y> on the doubled space.

    Nonconvex but convex after adding ||(x, y)||^2/2. It is proxed only
    under a diagonal metric, in closed form whenever the metric is uniform
    on each block with product of the two block stepsizes below one.
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
    g_lift = BlockSeparable([(inst.g, inst.dim), (ConjugatePart(inst.f), inst.dim)])
    h_lift = LiftedCoupling(inst.h, inst.dim)
    return DcInstance(g=g_lift, h=h_lift, dim=2 * inst.dim, mu=1.0,
                      name="lifted")


def run3_via_lifted(inst, cfg, s0, t0, record_trace=True):
    """Run the diagonal two-prox solver on the lifted pair.

    Starts at (s0, t0/delta) with stepsize diag(gamma, 1/delta), relaxation
    diag(lam, mu), unit shift and the tolerance and budget of ``cfg``. Returns the report and the lifted iterates, recorded on the
    lifted g; their s-block reproduces the direct three-prox recursion.
    """
    cfg.validate()
    n = inst.dim
    lifted, iterates = recording(lifted_pair(inst))
    gamma_diag = np.concatenate([np.full(n, cfg.gamma), np.full(n, 1.0 / cfg.delta)])
    lam_diag = np.concatenate([np.full(n, cfg.lam), np.full(n, cfg.mu)])
    start = np.concatenate([_as_vector(s0), _as_vector(t0) / cfg.delta])
    report = run_diag(lifted, gamma_diag, lam_diag, start, m_diag=np.ones(2 * n),
                      tol=cfg.tol, max_iter=cfg.max_iter,
                      record_trace=record_trace)
    return report, iterates()
