"""Reference implementations that tests compare the product against.

The recording atom logs the argument of every prox call an atom gets; the
relaxed solvers prox g once at each evaluated iterate (and three-prox's f
once at its second block), so the log is the iterate sequence that tests
compare bit for bit.

The three-prox helpers take one step of the recursion, evaluate the
surrogate Psi at a point, and measure how far the update lies from a
finite-difference gradient step on Psi (criterion 1).

The lifted oracle is the two-function reformulation of a three-term
instance on the doubled space (criterion 5): G(x, y) = g(x) + conj(f)(y)
and H(x, y) = h(x) + <x, y>, iterated by the diagonal-metric two-prox
solver with stepsize diag(gamma, 1/delta), relaxation diag(lam, mu) and
unit quadratic shift.

The reference sparse-PCA builder is the straightforward construction the
lean one in ``dcprox.problems`` must reproduce byte for byte: int64
column lists, their concatenation, a CSR copy of A and one fresh dense row
block per step.
"""

import dataclasses

import numpy as np
from scipy import sparse

from dcprox import (
    BlockSeparable,
    CapabilityError,
    DcInstance,
    ProxFunction,
    Quadratic,
    ScaledSquare,
    run_diag,
)
from dcprox.checks import finite_difference_gradient
from dcprox.problems import _rng_for
from dcprox.prox import _as_vector, validate_diagonal
from dcprox.three_prox import ThreeTermInstance, _h_point, _psi_from_points

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
        return self._atom.prox_diag(x, entries)

    def __getattr__(self, name):
        return getattr(self._atom, name)


def recording(inst):
    """(``inst`` with its g atom, and f on a three-term instance, wrapped in
    RecordingAtom; a function returning the iterates they logged so far).

    The iterates are the s at which g was proxed, or the (s, t) pairs of g
    and f. The relaxed solvers prox g once per evaluated iterate; L-BFGS
    also proxes g at each linesearch trial, and three-prox's f takes t.
    """
    g = RecordingAtom(inst.g)
    if isinstance(inst, ThreeTermInstance):
        f = RecordingAtom(inst.f)
        return dataclasses.replace(inst, g=g, f=f), lambda: list(zip(g.log, f.log))
    return dataclasses.replace(inst, g=g), lambda: list(g.log)


# ---------------------------------------------------------------------------
# reference sparse-PCA builder


def reference_spca_data(n, seed):
    """A (CSC), Sigma = A'A and s0 of (n, seed), built the plain way: the
    same draws, the same 8 row blocks and the same Gram sum order."""
    rng = _rng_for(n, seed)
    m = 20 * n
    rows, vals = [], []
    for _ in range(n):
        rows.append(np.nonzero(rng.random(m) < 0.1)[0])
        vals.append(rng.standard_normal(rows[-1].size))
    a = sparse.csc_matrix((np.concatenate(vals), np.concatenate(rows),
                           np.cumsum([0] + [r.size for r in rows])), shape=(m, n))
    a_rows, step = a.tocsr(), -(-m // 8)
    sigma = np.zeros((n, n))
    for block in (a_rows[lo:lo + step].toarray() for lo in range(0, m, step)):
        sigma += block.T @ block
    s0 = rng.standard_normal(n)
    s0 /= np.linalg.norm(s0)
    return a, sigma, s0


# ---------------------------------------------------------------------------
# three-prox reference helpers


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


def run3_via_lifted(inst, cfg, s0, t0):
    """Run the diagonal two-prox solver on the lifted pair.

    Starts at (s0, t0/delta) with stepsize diag(gamma, 1/delta), relaxation
    diag(lam, mu), unit shift and the tolerance, budget and trace flag of
    ``cfg``. Returns the report and the lifted iterates, recorded on the
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
                      record_trace=cfg.record_trace)
    return report, iterates()
