"""Problem catalogue: sparse-PCA instances and small oracle-verified ones.

Sparse-PCA instances minimize -s'Sigma s/2 + kappa*||s||_1 over the unit
ball, with Sigma = A'A for a sparse tall random matrix A (20n x n, about
10% nonzeros, standard normal values). One PCG64 stream per (n, seed),
seeded by SeedSequence([seed, n]), draws A column by column, then the
start vector. The JSON descriptor stores (n, seed, kappa); regeneration is
bit-exact.

Memory layout of a build: A exists once, as CSC arrays (float64 values,
int32 row indices: 12 bytes per nonzero) that the draws write into
directly; Sigma sums B'B over 8 dense row blocks B of A, each filled from
those arrays into one reused buffer, so the peak is A, one block, Sigma
and one n x n product. Only Sigma and s0 outlive the build: A is dropped
before the eigensolve for lambda_max.
"""

import json
import os
from dataclasses import dataclass, field
from math import isqrt, sqrt
from typing import Optional

import numpy as np
from scipy import sparse

from .envelope import DcInstance, quadratic_smooth, smooth_view
from .prox import (
    BlockSeparable,
    L1Ball,
    L1Norm,
    Linear,
    Quadratic,
    ScaledSquare,
    Zero,
    soft_threshold,
)
from .three_prox import ThreeTermInstance, default_config


def _rng_for(n, seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n])))


def power_lambda_max(sigma):
    """Largest eigenvalue of a symmetric matrix, from one dense eigensolve.

    Exact to rounding: an iterative estimate that stops early underestimates
    L, the unsafe side of every gamma < 1/L gate. The name predates the
    eigensolve and is kept because callers, and the benchmark's layer
    tracer, refer to it by name. Returns 0.0 for an empty matrix.
    """
    if sigma.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(sigma)[-1])


def kappa_default(sigma):
    """Declared default sparsity weight: 0.1 * max_i sqrt(Sigma_ii)."""
    return 0.1 * float(np.sqrt(np.max(np.diag(sigma))))


@dataclass(frozen=True)
class SpcaInstance:
    """Generated sparse-PCA data plus its derived quantities."""

    n: int
    seed: int
    kappa: float
    sigma: np.ndarray = field(repr=False)
    lam_max: float
    s0: np.ndarray = field(repr=False)


def _draw_a(rng, m, n, edges):
    """Draw A column by column, a row mask then its values (the pinned
    order), straight into the CSC value and int32 row-index arrays.

    The arrays start at the expected nonzero count and grow in place by one
    column's worst case when a draw overruns them; the last resize trims
    them to size. Returns A and ``cuts``, an n x len(edges) array:
    cuts[j, b] is the CSC position of column j's first entry in row
    edges[b] or later, so block b of column j is positions cuts[j, b] to
    cuts[j, b + 1].
    """
    data, indices = np.empty(m * n // 10), np.empty(m * n // 10, dtype=np.int32)
    cuts = np.empty((n, len(edges)), dtype=np.int64)
    bounds, start = np.array(edges), 0
    for j in range(n):
        idx = np.flatnonzero(rng.random(m) < 0.1)
        end = start + idx.size
        if end > data.size:  # no view of either array is alive here
            data.resize(end + m, refcheck=False)
            indices.resize(end + m, refcheck=False)
        rng.standard_normal(out=data[start:end])
        indices[start:end] = idx
        cuts[j] = start + np.searchsorted(idx, bounds)
        start = end
    data.resize(start, refcheck=False)
    indices.resize(start, refcheck=False)
    indptr = np.append(cuts[:, 0], start)
    return sparse.csc_matrix((data, indices, indptr), shape=(m, n)), cuts


def _gram_by_blocks(a, cuts, edges):
    """Sigma = A'A as the sum of B'B over the dense row blocks B = A[lo:hi].

    Each block is filled straight from A's CSC arrays into one reused
    C-ordered buffer, the entries of column j in block b being the run
    cuts[j, b]:cuts[j, b + 1]. The blocks are the rows of A.tocsr() sliced
    at ``edges`` and densified, so the sum is the same floats, in the same
    order, as from those slices.
    """
    n = a.shape[1]
    sigma = np.zeros((n, n))
    buf = np.empty((edges[1], n))
    cols = np.arange(n)
    for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
        block = buf[:hi - lo]
        block.fill(0.0)
        count = cuts[:, b + 1] - cuts[:, b]
        at = np.repeat(cuts[:, b] - np.cumsum(count) + count, count)
        at += np.arange(at.size)  # the block's CSC positions, column by column
        flat = np.multiply(a.indices.take(at), n, dtype=np.intp)
        flat += np.repeat(cols - lo * n, count)  # (row - lo) * n + column
        np.put(buf, flat, a.data.take(at))
        del at, flat  # not held through the product
        sigma += block.T @ block
    return sigma


def _generate_spca_data(n, seed):
    """Return A (CSC, int32 row indices), Sigma = A'A and s0.

    Memory: A is held once, as its CSC arrays (12 bytes per nonzero), which
    the draws fill in place. Sigma adds B'B over 8 row blocks B of A,
    ceil(m/8) x n each, filled one at a time into a single dense buffer; no
    CSR copy of A is made. The peak is A, that buffer, Sigma and one n x n
    product.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = _rng_for(n, seed)
    m = 20 * n
    edges = [*range(0, m, -(-m // 8)), m]  # 8 row blocks
    a, cuts = _draw_a(rng, m, n, edges)
    sigma = _gram_by_blocks(a, cuts, edges)
    s0 = rng.standard_normal(n)
    s0 /= np.linalg.norm(s0)
    return a, sigma, s0


def max_spca_n():
    """The largest n whose build floor, 60*n^2 bytes, fits in this machine's
    physical memory: A at 24*n^2 (2*n^2 nonzeros at 12 bytes), one row block
    at 20*n^2, Sigma and one n x n product at 16*n^2."""
    return isqrt(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 60)


def _spca_instance(n, kappa, seed):
    """The SpcaInstance of (n, seed); kappa None means the declared default."""
    sigma, s0 = _generate_spca_data(n, seed)[1:]  # A is freed before the eigensolve
    if kappa is None:
        kappa = kappa_default(sigma)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return SpcaInstance(n=n, seed=seed, kappa=kappa, sigma=sigma,
                        lam_max=power_lambda_max(sigma), s0=s0)


def _spca_for(n, kappa, seed, spca):
    """``spca`` if given, else a new build; ValueError if ``spca`` is the
    SpcaInstance of another (n, seed) or kappa (None: the declared default)."""
    if spca is None:
        return _spca_instance(n, kappa, seed)
    want = kappa_default(spca.sigma) if kappa is None else kappa
    if (spca.n, spca.seed, spca.kappa) != (n, seed, want):
        raise ValueError(f"spca= holds (n, seed, kappa) = ({spca.n}, {spca.seed}, "
                         f"{spca.kappa!r}), not ({n}, {seed}, {want!r})")
    return spca


def make_spca(n, kappa=None, seed=0, *, spca=None):
    """Build a sparse-PCA instance and its two-function splitting.

    g = kappa*||.||_1 + indicator of the unit ball, h = s'Sigma s/2. The
    returned DC instance carries the smooth oracle for h and the
    closed-form DC-iteration subproblem (shrink the gradient, normalize to
    the sphere). ``spca``, the SpcaInstance of the same (n, seed, kappa),
    skips the draw and the product: the split is built on its Sigma.
    """
    spca = _spca_for(n, kappa, seed, spca)
    kappa, sigma = spca.kappa, spca.sigma

    def dca_step(v, _k=kappa):
        w = soft_threshold(v, _k)
        norm = sqrt(w.dot(w))
        return w / norm if norm > 0 else w

    h = Quadratic(sigma)
    inst = DcInstance(g=L1Ball(kappa), h=h, dim=n, mu=0.0,
                      smooth_h=quadratic_smooth(h, eig_range=(0.0, spca.lam_max)),
                      dca_step=dca_step, name=f"spca-n{n}-seed{seed}")
    return spca, inst


def make_spca3(n, kappa=None, seed=0, *, spca=None):
    """Three-term split of the same objective: g as above, h = 0, f quadratic.

    ``spca`` is taken as in ``make_spca``. f is an atom of its own, not the
    two-term split's h, because its inverse slots serve other stepsizes.
    """
    spca = _spca_for(n, kappa, seed, spca)
    inst = ThreeTermInstance(f=Quadratic(spca.sigma), g=L1Ball(spca.kappa),
                             h=Zero(), dim=n)
    return spca, inst


# ---------------------------------------------------------------------------
# synthetic oracle-verified instances


@dataclass(frozen=True)
class SyntheticInstance:
    """A small closed-form problem with stored reference solutions.

    ``stationary`` lists all stationary points inside the oracle window;
    ``expected_limit`` is the one reached from ``s0`` (verified against a
    grid oracle). Solvers unsupported by the instance are absent from
    ``solvers``.
    """

    name: str
    dc: Optional[DcInstance]
    gamma: float
    s0: np.ndarray
    stationary: tuple
    expected_limit: np.ndarray
    phi_star: Optional[float]
    window: tuple
    solvers: tuple
    coercive: bool = True
    lam: float = 1.0
    three: Optional[ThreeTermInstance] = None
    three_cfg: Optional[object] = None
    t0: Optional[np.ndarray] = None


def synthetic_catalogue():
    """The standing list of oracle-verified instances."""
    arr = lambda *xs: np.array(xs, dtype=float)
    out = []

    def linear_h(*c):
        # h = <c, .> and its smooth view, which has no curvature
        h = Linear(c)
        return {"h": h, "smooth_h": smooth_view(h, (0.0, 0.0))}

    # (a) smooth quadratic minus linear; unique stationary point at 1
    out.append(SyntheticInstance(
        name="quad-linear-1d",
        dc=DcInstance(g=ScaledSquare(1.0), **linear_h(1.0), dim=1,
                      dca_step=lambda v: np.asarray(v, dtype=float).copy(),
                      name="quad-linear-1d"),
        gamma=1.0, s0=arr(0.0), stationary=(arr(1.0),),
        expected_limit=arr(1.0), phi_star=-0.5, window=(-4.0, 6.0),
        solvers=("dce", "dce-lbfgs", "fbs", "dca", "drs")))

    # (b1) l1 minus a convex quadratic: stationary set {-1, 0, 1}, objective
    # unbounded below; starts near 0 stay in its basin. smooth_h is a 1 x 1
    # Quadratic's, whose x*(1/scale) differs from ScaledSquare's x/scale in bits
    out.append(SyntheticInstance(
        name="abs-quad-1d",
        dc=DcInstance(g=L1Norm(1.0), h=ScaledSquare(1.0), dim=1,
                      smooth_h=quadratic_smooth(np.array([[1.0]]),
                                                eig_range=(1.0, 1.0)),
                      name="abs-quad-1d"),
        gamma=0.5, s0=arr(0.25), stationary=(arr(-1.0), arr(0.0), arr(1.0)),
        expected_limit=arr(0.0), phi_star=None, window=(-2.5, 2.5),
        solvers=("dce", "dce-lbfgs", "fbs", "drs"), coercive=False))

    # (b2) l1 plus a hypoconvex quadratic tail, handled through mu
    out.append(SyntheticInstance(
        name="abs-hypo-1d",
        dc=DcInstance(g=L1Norm(1.0), h=ScaledSquare(-0.5), dim=1, mu=0.5,
                      smooth_h=quadratic_smooth(np.array([[-0.5]]),
                                                eig_range=(-0.5, -0.5)),
                      name="abs-hypo-1d"),
        gamma=1.0, s0=arr(1.5), stationary=(arr(0.0),),
        expected_limit=arr(0.0), phi_star=0.0, window=(-3.0, 3.0),
        solvers=("dce", "dce-lbfgs", "fbs", "drs"), lam=0.9))

    # (c) separable 2-d pair for diagonal-metric runs
    out.append(SyntheticInstance(
        name="separable-2d",
        dc=DcInstance(g=BlockSeparable([(ScaledSquare(1.0), 1),
                                        (ScaledSquare(2.0), 1)]),
                      **linear_h(1.0, 2.0), dim=2,
                      dca_step=lambda v: np.array([v[0], v[1] / 2.0]),
                      name="separable-2d"),
        gamma=1.0, s0=arr(0.0, 0.0), stationary=(arr(1.0, 1.0),),
        expected_limit=arr(1.0, 1.0), phi_star=-1.5, window=(-3.0, 4.0),
        solvers=("dce", "dce-lbfgs", "fbs", "dca", "drs")))

    # (d) three-term quadratic split of x^2/2
    out.append(SyntheticInstance(
        name="three-quad-1d",
        dc=None,
        gamma=0.5, s0=arr(1.5), stationary=(arr(0.0),),
        expected_limit=arr(0.0), phi_star=0.0, window=(-3.0, 3.0),
        solvers=("three-prox",),
        three=ThreeTermInstance(f=ScaledSquare(1.0), g=ScaledSquare(2.0),
                                h=Zero(), dim=1),
        three_cfg=default_config(),
        t0=arr(1.5)))

    return out


def find_synthetic(name):
    catalogue = synthetic_catalogue()
    for inst in catalogue:
        if inst.name == name:
            return inst
    raise ValueError(f'"name" must be one of {", ".join(c.name for c in catalogue)}; '
                     f"got {json.dumps(name)}")


# ---------------------------------------------------------------------------
# JSON problem descriptors (shared with the command-line surface)


def _integer(doc, key, default, least):
    """doc[key]: a JSON integer, not a float or a bool, of at least ``least``."""
    value = doc.get(key, default)
    if type(value) is not int or value < least:
        raise ValueError(f'"{key}" must be an integer of at least {least}, '
                         f"got {json.dumps(value)}")
    return value


# the keys a problem document of each kind may hold
_KEYS = {"spca": ("kind", "n", "seed", "kappa"), "spca3": ("kind", "n", "seed", "kappa"),
         "synthetic": ("kind", "name")}


def problem_from_json(text):
    """Rebuild a problem from its JSON descriptor.

    Returns (kind, payload): for "spca"/"spca3" the payload is
    (SpcaInstance, problem instance); for "synthetic" it is the
    SyntheticInstance. A rejected value or unknown key is a ValueError naming it.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a problem document is a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KEYS:
        raise ValueError(f"unknown problem kind {kind!r}")
    for key in doc:
        if key not in _KEYS[kind]:
            raise ValueError(f'unknown key "{key}" in a {kind} problem; '
                             f'its keys are {", ".join(_KEYS[kind])}')
    if kind == "synthetic":
        return kind, find_synthetic(doc.get("name"))
    kappa = doc.get("kappa")
    if kappa is not None and not (type(kappa) in (int, float) and 0 <= kappa < np.inf):
        raise ValueError('"kappa" must be null or a finite nonnegative number, '
                         f"got {json.dumps(kappa)}")
    n, most = _integer(doc, "n", None, 2), max_spca_n()
    if n > most:
        raise ValueError(f'"n" must be at most {most}, the largest whose build '
                         f"(60*n^2 bytes) fits in this machine's memory; got {n}")
    build = make_spca3 if kind == "spca3" else make_spca
    return kind, build(n, kappa, _integer(doc, "seed", 0, 0))
