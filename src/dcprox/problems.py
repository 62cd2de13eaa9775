"""Problem catalogue: sparse-PCA instances and small oracle-verified ones.

Sparse-PCA instances minimize -s'Sigma s/2 + kappa*||s||_1 over the unit
ball, with Sigma = A'A for a sparse tall random matrix A (20n x n, about
10% nonzeros, standard normal values). One PCG64 stream per (n, seed),
seeded by SeedSequence([seed, n]), draws A column by column, then the
start vector. The JSON descriptor stores (n, seed, kappa); regeneration is
bit-exact.

Memory layout of a build: A exists once, as CSC pieces of one row panel
each (float64 values, 16-bit panel-local rows: 10 bytes per nonzero). Each
dense panel B (``_panel_rows``) is filled from its piece into one reused
buffer, after which the piece is freed, and its B'B is added by SYRK into
one triangle of Sigma in place, so the peak is A, one panel and Sigma.
Only Sigma and s0 outlive the build: A is gone before the eigensolve for
lambda_max. The SYRK is BLAS ``dsyrk`` from ``dcprox.kernels``.
"""

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from math import isqrt, sqrt
from typing import Optional

import numpy as np

from .envelope import DcInstance, smooth_view
from .kernels import dsyrk
from .prox import (
    BlockSeparable,
    L1Ball,
    L1Norm,
    Linear,
    Quadratic,
    ScaledSquare,
    Zero,
    check_weight,
    mirror_lower,
    soft_threshold,
)
from .three_prox import ThreeTermInstance


def _rng_for(n, seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n])))


def power_lambda_max(sigma):
    """Largest eigenvalue of a symmetric matrix, from one dense eigensolve.

    Exact to rounding: an iterative estimate that stops early underestimates
    L, the unsafe side of every gamma < 1/L gate. The name predates the
    eigensolve and is kept because callers, and the benchmark's layer
    tracer, refer to it by name.
    """
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


_STAGE = 64  # columns drawn into the staging buffer before it is split into the pieces
PANEL_BYTES = 1 << 20  # the most bytes of one dense row panel of A, up to n = 1024
# _draw_a's work grows with the panels; from n = 1025 they are n / 8 rows, where
# a SYRK runs as fast per row as over n rows (measured up to n = 5000)
MAX_PANELS = 160


def _panel_rows(n):
    """Rows per panel of A: fitting PANEL_BYTES, at most MAX_PANELS panels, at most n."""
    return min(n, max(PANEL_BYTES // (8 * n), -(-20 * n // MAX_PANELS)))


def _draw_a(rng, m, n, edges):
    """Draw A column by column, a row mask then its values (the pinned
    order), into one CSC piece per row panel edges[b]:edges[b + 1].

    A piece is (indptr, rows, values): 16-bit panel-local rows (a panel
    has at most 65,536 rows) and float64 values, 10 bytes per nonzero; the
    indptrs are the rows of one int32 array. _STAGE columns at a time are
    drawn into one staging buffer, rows modulo 2^16. cuts[c, b] counts
    column c's rows below edges[b], so panel b's run of column c is staged
    at cuts[c, b] to cuts[c, b + 1] past the column's start. Per stage, one
    cumsum of the runs in piece order places them and gives every piece's
    indptr; each piece then copies its runs, column by column, to its end.
    Buffers start at their expected sizes (pieces with a stage's entries
    to spare) and grow in place when overrun; at the end each piece is
    trimmed and subtracts its panel's first row, exact in the wrapping
    arithmetic since a local row is in range.
    """
    bounds = np.array(edges)
    lows = bounds[:-1].astype(np.uint16)  # each panel's first row, modulo 2^16
    sizes = [(hi - lo) * (n + _STAGE) // 10 for lo, hi in zip(edges, edges[1:])]
    indptrs = np.zeros((len(sizes), n + 1), dtype=np.int32)
    pieces = [(indptr, np.empty(size, dtype=np.uint16), np.empty(size))
              for indptr, size in zip(indptrs, sizes)]
    rows, values = np.empty(_STAGE * m // 10, dtype=np.uint16), np.empty(_STAGE * m // 10)
    uniform, mask = np.empty(m), np.empty(m, dtype=bool)
    cuts, starts = np.empty((_STAGE, len(edges)), dtype=np.int64), np.empty(_STAGE, dtype=np.int64)
    for c0 in range(0, n, _STAGE):
        width, end = min(_STAGE, n - c0), 0
        for c in range(width):
            rng.random(out=uniform)
            idx = np.less(uniform, 0.1, out=mask).nonzero()[0]
            starts[c], end = end, end + idx.size
            if end > values.size:  # no view of either buffer is alive here
                rows.resize(end + m, refcheck=False)
                values.resize(end + m, refcheck=False)
            rng.standard_normal(out=values[starts[c]:end])
            rows[starts[c]:end] = idx  # wraps modulo 2^16
            cuts[c] = idx.searchsorted(bounds)
        # every run of the stage, panel by panel, then column by column
        first = (cuts[:width, :-1] + starts[:width, None]).T.ravel()
        count = np.diff(cuts[:width], axis=1).T.ravel()
        ends = np.cumsum(count)  # where each run ends in that order
        at = np.repeat(first - ends + count, count)
        at += np.arange(at.size)  # the staged positions of those runs
        split = [0, *ends[width - 1::width].tolist()]  # piece b's runs: at[split[b]:split[b + 1]]
        span = indptrs[:, c0:c0 + width + 1]  # every piece's indptr over the stage
        np.add(ends.reshape(-1, width), (span[:, 0] - split[:-1])[:, None], out=span[:, 1:])
        for (_, local, vals), spare, (filled, full), lo, hi in zip(
                pieces, sizes, span[:, ::width].tolist(), split, split[1:]):
            if full > vals.size:  # no view of the piece is alive here
                local.resize(full + spare, refcheck=False)
                vals.resize(full + spare, refcheck=False)
            # "clip": every position is in range, and take's default mode
            # would gather into a temporary before copying to ``out``
            rows.take(at[lo:hi], out=local[filled:full], mode="clip")
            values.take(at[lo:hi], out=vals[filled:full], mode="clip")
    for (indptr, local, vals), low in zip(pieces, lows):
        local.resize(indptr[-1], refcheck=False)
        vals.resize(indptr[-1], refcheck=False)
        local -= low
    return pieces


def _gram_by_blocks(pieces, edges):
    """Sigma = A'A as the sum of B'B over the dense row panels B of A, in
    panel order, consuming ``pieces``: each piece is dropped from the list,
    and so freed, as soon as its panel is filled.

    Each piece is filled whole into one reused C-ordered buffer of edges[1]
    rows (the last panel may use fewer), and SYRK (upper, no transpose, on
    the F-ordered view B', beta = 1) adds its product in place to one
    triangle of Sigma's own buffer: the lower one, read C-ordered. That
    triangle is mirrored once at the end.
    """
    n = len(pieces[0][0]) - 1
    sigma = np.zeros((n, n))
    panel = np.empty((edges[1], n))
    cols = np.arange(n)
    for b in range(len(pieces)):
        indptr, rows, values = pieces[b]
        pieces[b] = None
        block = panel[:edges[b + 1] - edges[b]]
        block.fill(0.0)
        flat = np.multiply(rows, n, dtype=np.intp)
        flat += np.repeat(cols, np.diff(indptr))  # row * n + column
        np.put(block, flat, values)
        del indptr, rows, values, flat  # the piece is freed here
        # the returned c is Sigma's own buffer: overwrite_c on an F-ordered c
        sigma = dsyrk(1.0, block.T, beta=1.0, c=sigma.T, lower=0, overwrite_c=1).T
    mirror_lower(sigma)
    return sigma


def _generate_spca_data(n, seed):
    """Return Sigma = A'A and s0.

    Memory: A is held once, as pieces of ``_panel_rows(n)`` rows at 10
    bytes per nonzero, each freed once its dense panel, in one reused
    buffer, is filled, and each product is added into Sigma's own buffer:
    the peak is ``_floor_bytes(n)``. Below n = 363 a panel is n rows.
    """
    rng = _rng_for(n, seed)
    m = 20 * n
    edges = [*range(0, m, _panel_rows(n)), m]  # the last panel may be shorter
    pieces = _draw_a(rng, m, n, edges)
    sigma = _gram_by_blocks(pieces, edges)
    s0 = rng.standard_normal(n)
    s0 /= np.linalg.norm(s0)
    return sigma, s0


FLOOR_PER_N2 = 28  # bytes per n^2 of A's pieces (2n^2 nonzeros at 10 bytes) and Sigma


def _floor_bytes(n):
    """A build's peak in bytes: FLOOR_PER_N2 n^2, one dense panel (at most
    about n^2) and the pieces' int32 column pointers, n + 1 per panel."""
    rows = _panel_rows(n)
    return FLOOR_PER_N2 * n * n + 8 * rows * n + 4 * (n + 1) * -(-20 * n // rows)


def max_spca_n():
    """The largest n whose build floor, ``_floor_bytes(n)``, fits in this
    machine's physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # the floor rises with n and is at least FLOOR_PER_N2 * n^2; n = 0 is no build
    candidates = range(isqrt(memory // FLOOR_PER_N2) + 1)
    return bisect_right(candidates, memory, lo=1, key=_floor_bytes) - 1


def check_spca_n(n, name='"n"'):
    """ValueError, naming n ``name``, unless n is from 2 to ``max_spca_n()``:
    every sparse-PCA size's check, made before anything is drawn."""
    if n < 2:
        raise ValueError(f"{name} must be at least 2, got {n}")
    most = max_spca_n()
    if n > most:
        raise ValueError(f"{name} must be at most {most}, the largest whose build "
                         f"(about {FLOOR_PER_N2}*n^2 bytes) fits in this machine's "
                         f"memory; got {n}")


def _spca_instance(n, kappa, seed):
    """The SpcaInstance of (n, seed); kappa None means the declared default.
    n and kappa are checked before the draw."""
    check_spca_n(n)
    if kappa is not None:
        check_weight(kappa, '"kappa"')
    sigma, s0 = _generate_spca_data(n, seed)  # A is freed before the eigensolve
    if kappa is None:
        kappa = kappa_default(sigma)
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
    closed-form DC-iteration subproblem (shrink the gradient by g's kappa,
    normalize to the sphere). ``spca``, the SpcaInstance of the same
    (n, seed, kappa), skips the draw and the product: the split is built on
    its Sigma.
    """
    spca = _spca_for(n, kappa, seed, spca)
    g, h = L1Ball(spca.kappa), Quadratic(spca.sigma)

    def dca_step(v):
        w = soft_threshold(v, g.kappa)
        norm = sqrt(w.dot(w))
        return w / norm if norm > 0 else w

    inst = DcInstance(g=g, h=h, dim=n, mu=0.0,
                      smooth_h=smooth_view(h, (0.0, spca.lam_max)),
                      dca_step=dca_step)
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
    """A small closed-form problem: its two-function form ``dc`` or its
    three-term form ``three`` (the other None), the default stepsize of a
    solve and its start. Nothing else: the reference answers that tests
    compare against live test-side, keyed by ``name``."""

    name: str
    dc: Optional[DcInstance]
    gamma: float
    s0: np.ndarray
    three: Optional[ThreeTermInstance] = None


def synthetic_catalogue():
    """The standing list of small closed-form instances, each with its
    problem, default stepsize and start only."""
    arr = lambda *xs: np.array(xs, dtype=float)

    def linear_h(*c):
        # h = <c, .> and its smooth view, which has no curvature
        h = Linear(c)
        return {"h": h, "smooth_h": smooth_view(h, (0.0, 0.0))}

    return [
        # (a) smooth quadratic minus linear; unique stationary point at 1
        SyntheticInstance(
            name="quad-linear-1d",
            dc=DcInstance(g=ScaledSquare(1.0), **linear_h(1.0), dim=1,
                          dca_step=lambda v: np.asarray(v, dtype=float).copy()),
            gamma=1.0, s0=arr(0.0)),
        # (b1) l1 minus a convex quadratic: stationary set {-1, 0, 1}, objective
        # unbounded below; starts near 0 stay in its basin. smooth_h is a 1 x 1
        # Quadratic's, whose x*(1/scale) differs from ScaledSquare's x/scale in bits
        SyntheticInstance(
            name="abs-quad-1d",
            dc=DcInstance(g=L1Norm(1.0), h=ScaledSquare(1.0), dim=1,
                          smooth_h=smooth_view(Quadratic([[1.0]]), (1.0, 1.0))),
            gamma=0.5, s0=arr(0.25)),
        # (b2) l1 plus a hypoconvex quadratic tail, handled through mu
        SyntheticInstance(
            name="abs-hypo-1d",
            dc=DcInstance(g=L1Norm(1.0), h=ScaledSquare(-0.5), dim=1, mu=0.5,
                          smooth_h=smooth_view(Quadratic([[-0.5]]), (-0.5, -0.5))),
            gamma=1.0, s0=arr(1.5)),
        # (c) separable 2-d pair
        SyntheticInstance(
            name="separable-2d",
            dc=DcInstance(g=BlockSeparable([(ScaledSquare(1.0), 1),
                                            (ScaledSquare(2.0), 1)]),
                          **linear_h(1.0, 2.0), dim=2,
                          dca_step=lambda v: np.array([v[0], v[1] / 2.0])),
            gamma=1.0, s0=arr(0.0, 0.0)),
        # (d) three-term quadratic split of x^2/2
        SyntheticInstance(
            name="three-quad-1d", dc=None, gamma=0.5, s0=arr(1.5),
            three=ThreeTermInstance(f=ScaledSquare(1.0), g=ScaledSquare(2.0),
                                    h=Zero(), dim=1)),
    ]


def find_synthetic(name):
    catalogue = synthetic_catalogue()
    for inst in catalogue:
        if inst.name == name:
            return inst
    raise ValueError(f'"name" must be one of {", ".join(c.name for c in catalogue)}; '
                     f"got {json.dumps(name)}")


# ---------------------------------------------------------------------------
# JSON problem descriptors (shared with the command-line surface)


def _integer(doc, key, default):
    """doc[key]: a JSON integer, not a float or a bool."""
    value = doc.get(key, default)
    if type(value) is not int:
        raise ValueError(f'"{key}" must be an integer, got {json.dumps(value)}')
    return value


_FLOAT_MAX = float(np.finfo(float).max)  # a larger JSON integer has no float

# the keys a problem document of each kind may hold
_KEYS = {"spca": ("kind", "n", "seed", "kappa"), "spca3": ("kind", "n", "seed", "kappa"),
         "synthetic": ("kind", "name")}


def problem_from_json(text, seed=None):
    """Rebuild a problem from its JSON descriptor.

    Returns (kind, payload): for "spca"/"spca3" the payload is
    (SpcaInstance, problem instance); for "synthetic" it is the
    SyntheticInstance. A rejected value or unknown key is a ValueError naming it.
    ``seed``, if given, replaces the document's seed (``solve --seed``); a
    synthetic problem, which draws nothing, rejects it.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a problem document is a JSON object, got {type(doc).__name__}")
    if seed is not None:
        if doc.get("kind") == "synthetic":
            raise ValueError("--seed needs a spca problem; a synthetic one draws nothing")
        doc["seed"] = seed
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KEYS:
        raise ValueError(f"unknown problem kind {kind!r}")
    for key in doc:
        if key not in _KEYS[kind]:
            raise ValueError(f"unknown key {json.dumps(key)} in a {kind} problem; "
                             f'its keys are {", ".join(_KEYS[kind])}')
    if kind == "synthetic":
        return kind, find_synthetic(doc.get("name"))
    # the JSON types; the build checks kappa's value, and n's is checked
    # before any builder runs, as for the bench flags
    kappa = doc.get("kappa")
    if kappa is not None and not (type(kappa) is float or (
            type(kappa) is int and abs(kappa) <= _FLOAT_MAX)):
        raise ValueError('"kappa" must be null or a number within float range, '
                         f"got {json.dumps(kappa)}")
    n, seed = _integer(doc, "n", None), _integer(doc, "seed", 0)
    if seed < 0:
        raise ValueError(f'"seed" must be nonnegative, got {seed}')
    check_spca_n(n)
    build = make_spca3 if kind == "spca3" else make_spca
    return kind, build(n, kappa, seed)
