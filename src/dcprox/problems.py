"""Problem catalogue: sparse-PCA instances and small oracle-verified ones.

Sparse-PCA instances minimize -s'Sigma s/2 + kappa*||s||_1 over the unit
ball, with Sigma = A'A for a sparse tall random matrix A (20n x n, about
10% nonzeros, standard normal values). Generation is deterministic per
(n, seed): one PCG64 stream seeded by SeedSequence([seed, n]), columns of A
drawn in order, then the start vector. Matrices are never serialized; the
JSON descriptor stores (n, seed, kappa) and regeneration is bit-exact.
"""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .envelope import DcInstance, SmoothFunction, quadratic_smooth
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
    a_matrix: sparse.coo_matrix = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    lam_max: float
    s0: np.ndarray = field(repr=False)

    def to_json(self, gamma_policy="0.9/lam_max"):
        """Portable descriptor; matrices regenerate from (n, seed)."""
        return json.dumps({"kind": "spca", "n": self.n, "seed": self.seed,
                           "kappa": self.kappa, "gamma_policy": gamma_policy})


def _generate_spca_data(n, seed, density=0.1, rows_per_col=20):
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = _rng_for(n, seed)
    m = rows_per_col * n
    rows, cols, vals = [], [], []
    for j in range(n):
        mask = rng.random(m) < density
        idx = np.nonzero(mask)[0]
        vals.append(rng.standard_normal(idx.shape[0]))
        rows.append(idx)
        cols.append(np.full(idx.shape[0], j))
    a = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, n))
    sigma = np.asarray((a.T @ a).todense())
    sigma = 0.5 * (sigma + sigma.T)
    s0 = rng.standard_normal(n)
    s0 /= np.linalg.norm(s0)
    return a, sigma, s0


def make_spca(n, kappa=None, seed=0):
    """Build a sparse-PCA instance and its two-function splitting.

    g = kappa*||.||_1 + indicator of the unit ball, h = s'Sigma s/2. The
    returned DC instance carries the smooth oracle for h and the
    closed-form DC-iteration subproblem (shrink the gradient, normalize to
    the sphere).
    """
    a, sigma, s0 = _generate_spca_data(n, seed)
    if kappa is None:
        kappa = kappa_default(sigma)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    lam_max = power_lambda_max(sigma)
    spca = SpcaInstance(n=n, seed=seed, kappa=kappa, a_matrix=a, sigma=sigma,
                        lam_max=lam_max, s0=s0)

    smooth_h = quadratic_smooth(sigma, eig_range=(0.0, lam_max))

    def dca_step(v, _k=kappa):
        w = soft_threshold(v, _k)
        norm = float(np.linalg.norm(w))
        return w / norm if norm > 0 else w

    inst = DcInstance(g=L1Ball(kappa), h=Quadratic(sigma), dim=n, mu=0.0,
                      smooth_h=smooth_h, dca_step=dca_step,
                      name=f"spca-n{n}-seed{seed}")
    return spca, inst


def make_spca3(n, kappa=None, seed=0):
    """Three-term split of the same objective: g as above, h = 0, f quadratic."""
    a, sigma, s0 = _generate_spca_data(n, seed)
    if kappa is None:
        kappa = kappa_default(sigma)
    lam_max = power_lambda_max(sigma)
    spca = SpcaInstance(n=n, seed=seed, kappa=kappa, a_matrix=a, sigma=sigma,
                        lam_max=lam_max, s0=s0)
    inst = ThreeTermInstance(f=Quadratic(sigma), g=L1Ball(kappa), h=Zero(),
                             dim=n)
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

    # (a) smooth quadratic minus linear; unique stationary point at 1
    out.append(SyntheticInstance(
        name="quad-linear-1d",
        dc=DcInstance(g=ScaledSquare(1.0), h=Linear([1.0]), dim=1,
                      smooth_h=SmoothFunction(
                          value=lambda x: float(x[0]),
                          grad=lambda x: np.ones(1),
                          lipschitz=0.0,
                          backward=lambda s, gamma: np.asarray(s) + gamma,
                          curvature_max=0.0),
                      dca_step=lambda v: np.asarray(v, dtype=float).copy(),
                      name="quad-linear-1d"),
        gamma=1.0, s0=arr(0.0), stationary=(arr(1.0),),
        expected_limit=arr(1.0), phi_star=-0.5, window=(-4.0, 6.0),
        solvers=("dce", "dce-lbfgs", "fbs", "dca", "drs")))

    # (b1) l1 minus a convex quadratic: stationary set {-1, 0, 1}, objective
    # unbounded below; starts near 0 stay in its basin
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
                      h=Linear([1.0, 2.0]), dim=2,
                      smooth_h=SmoothFunction(
                          value=lambda x: float(x[0] + 2.0 * x[1]),
                          grad=lambda x: np.array([1.0, 2.0]),
                          lipschitz=0.0,
                          backward=lambda s, gamma: np.asarray(s) + gamma * np.array([1.0, 2.0]),
                          curvature_max=0.0),
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
        three_cfg=default_config(gamma=0.5, delta=2.0, safety=0.9),
        t0=arr(1.5)))

    return out


def find_synthetic(name):
    for inst in synthetic_catalogue():
        if inst.name == name:
            return inst
    raise KeyError(f"unknown synthetic instance {name!r}")


# ---------------------------------------------------------------------------
# JSON problem descriptors (shared with the command-line surface)


def problem_to_json(kind, n=None, seed=None, kappa=None, name=None):
    doc = {"kind": kind}
    if kind in ("spca", "spca3"):
        doc.update(n=n, seed=seed, kappa=kappa)
    elif kind == "synthetic":
        doc.update(name=name)
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    return json.dumps(doc)


def problem_from_json(text):
    """Rebuild a problem from its JSON descriptor.

    Returns (kind, payload): for "spca"/"spca3" the payload is
    (SpcaInstance, problem instance); for "synthetic" it is the
    SyntheticInstance.
    """
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "spca":
        return kind, make_spca(int(doc["n"]), doc.get("kappa"),
                               int(doc.get("seed", 0)))
    if kind == "spca3":
        return kind, make_spca3(int(doc["n"]), doc.get("kappa"),
                                int(doc.get("seed", 0)))
    if kind == "synthetic":
        return kind, find_synthetic(doc["name"])
    raise ValueError(f"unknown problem kind {kind!r}")
