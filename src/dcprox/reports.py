"""The solver driver and the run reports it writes: trace plus final state."""

import enum
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .prox import _as_vector

DESCENT_SLACK = 1e-12


class Termination(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    NUMERICAL_ERROR = "numerical_error"


@dataclass(frozen=True)
class TracePoint:
    """State after computing the k-th prox tuple (before stepping).

    ``decrement`` is the envelope decrease that the step taken from this
    point claims, checked at run time against the next point's envelope:
    a relaxed step's guaranteed decrease, or the Armijo decrease an L-BFGS
    linesearch accepted. It is 0 for baseline steps and the final point,
    from which no step is taken. Call counters are cumulative.
    """

    k: int
    env: float
    residual: float
    phi: float
    decrement: float
    prox_h: int
    prox_g: int
    grad_h: int
    wall_ns: int


@dataclass
class RunReport:
    """Outcome of one solver run."""

    solver: str
    termination: Termination
    iterations: int
    final_s: np.ndarray
    final_u: np.ndarray
    final_v: np.ndarray
    final_t: Optional[np.ndarray] = None
    final_z: Optional[np.ndarray] = None
    trace: list = field(default_factory=list)
    gamma: float = 0.0
    params: dict = field(default_factory=dict)
    message: str = ""

    @property
    def converged(self):
        return self.termination is Termination.CONVERGED

    @property
    def final_residual(self):
        return self.trace[-1].residual if self.trace else 0.0

    def counts(self):
        """Final cumulative (prox_h, prox_g, grad_h) call counts."""
        if not self.trace:
            return (0, 0, 0)
        last = self.trace[-1]
        return (last.prox_h, last.prox_g, last.grad_h)


class CallCounter:
    """Cumulative prox/gradient call counts for one run.

    Solvers wrap each oracle once, at entry, with ``wrap``; every call then
    counts itself, so the counts are exact by construction.
    """

    def __init__(self):
        self.prox_h = 0
        self.prox_g = 0
        self.grad_h = 0

    def wrap(self, fn, column):
        """``fn``, counting each call in ``column`` (prox_h, prox_g or grad_h)."""
        counts = self.__dict__  # the attributes themselves, without getattr/setattr

        def counted(*args):
            counts[column] += 1
            return fn(*args)
        return counted


@dataclass(eq=False)
class Iterate:
    """One evaluated iterate, as a solver hands it to ``drive``.

    ``s`` is the iterate (``t`` its second block, for three-prox), ``u`` and
    ``v`` the prox outputs whose gap is ``residual``, and ``z`` three-prox's
    prox_f output. ``env`` is the value the descent check and the trace
    use; None means the method has no envelope and traces the objective.
    ``gaps`` (the prox differences and their squared norms behind
    ``residual``), ``grad`` (set by L-BFGS) and ``s_next`` (the baselines,
    which compute their next iterate while evaluating this one) carry what
    the next step reuses.
    """

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    env: Optional[float]
    residual: float
    t: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None
    s_next: Optional[np.ndarray] = None
    gaps: Optional[tuple] = None


def drive(solver, inst, starts, first, advance, phi_at, counter, tol, max_iter,
          record_trace=True, gamma=0.0, params=None):
    """Run one solver to convergence, the budget or a numerical error.

    ``first(*starts)`` evaluates the start point(s) and returns an
    ``Iterate``; ``advance(it)`` steps from ``it`` and returns the next
    evaluated ``Iterate`` with the envelope decrease the step claims, or
    None for a step that makes no claim. ``phi_at(it)`` is the point at
    which the trace evaluates the objective ``inst.phi``. Kept trace points
    are copied into a buffer and their objective values taken with
    ``inst.phis`` in chunks of 64 points, so that an atom's batched
    ``values`` can read its data once per chunk; the final point is
    evaluated alone with ``inst.phi``, so it does not depend on
    ``record_trace``. The run stops at ``residual <= tol``, after
    ``max_iter`` evaluated iterates, or with NUMERICAL_ERROR when an
    envelope rises above a claimed decrease or an oracle fails. Without
    ``record_trace`` the trace keeps only the last point. Counts come from
    ``counter``, which wraps the solver's oracles.
    """
    if tol < 0 or max_iter < 1:
        raise ValueError("tol must be nonnegative and max_iter positive")
    dim = inst.dim
    starts = [_as_vector(np.array(x, dtype=float)) for x in starts]
    for x in starts:
        if x.shape != (dim,):
            raise ValueError(f"start point has shape {x.shape}, instance dim {dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("start point must be finite")
    params = {} if params is None else params
    trace = []
    points = np.empty((64, dim)) if record_trace else None
    pending = []  # (env, residual, decrement, mark) of the rows in ``points``
    status = Termination.CONVERGED if dim == 0 else Termination.MAX_ITER
    message = ""
    it = None
    k = 0
    t0 = time.perf_counter_ns()

    def trace_point(value, env, residual, decrement, mark):
        return TracePoint(k=mark[0], env=value if env is None else env,
                          residual=residual, phi=value, decrement=decrement,
                          prox_h=mark[1], prox_g=mark[2], grad_h=mark[3],
                          wall_ns=mark[4])

    def flush():
        values = inst.phis(points[:len(pending)])
        trace.extend(trace_point(value, *row)
                     for value, row in zip(values.tolist(), pending))
        pending.clear()

    try:
        if dim:
            it = first(*starts)
            claim = None
            while True:
                mark = (k, counter.prox_h, counter.prox_g, counter.grad_h,
                        time.perf_counter_ns() - t0)
                k += 1
                if claim is not None and it.env > (
                        prev_env - claim + DESCENT_SLACK * (1.0 + abs(prev_env))):
                    status = Termination.NUMERICAL_ERROR
                    message = (f"descent violated at iteration {k}: env rose from "
                               f"{prev_env:.12g} to {it.env:.12g} against a claimed "
                               f"decrease of {claim:.3e}")
                    break
                if it.residual <= tol:
                    status = Termination.CONVERGED
                    break
                if k >= max_iter:
                    break
                nxt, claim = advance(it)
                if record_trace:
                    points[len(pending)] = phi_at(it)
                    pending.append((it.env, it.residual,
                                    0.0 if claim is None else claim, mark))
                    if len(pending) == len(points):
                        flush()
                prev_env, it = it.env, nxt
    except np.linalg.LinAlgError as exc:
        status = Termination.NUMERICAL_ERROR
        message = f"oracle evaluation failed: {exc}"

    if it is None:  # dim 0, or the start point could not be evaluated
        s = starts[0]
        t = starts[1] if len(starts) > 1 else None
        return RunReport(solver=solver, termination=status, iterations=0,
                         final_s=s, final_u=s, final_v=s, final_t=t, final_z=t,
                         gamma=gamma, params=params, message=message)
    if pending:
        flush()
    trace.append(trace_point(inst.phi(phi_at(it)), it.env, it.residual, 0.0, mark))
    return RunReport(solver=solver, termination=status, iterations=k,
                     final_s=it.s, final_u=it.u, final_v=it.v, final_t=it.t,
                     final_z=it.z, trace=trace, gamma=gamma, params=params,
                     message=message)


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
    envs = [tp.env for tp in report.trace]
    gap = envs[0] - min(envs)
    total_decr = sum(tp.decrement for tp in report.trace)
    budget = gap + 1e-10 * (1.0 + abs(gap) + abs(envs[0]))
    if total_decr > budget:
        return False
    running = 0.0
    min_sq = np.inf
    for k, tp in enumerate(report.trace[:-1], start=1):
        r2 = tp.residual ** 2
        running += r2
        min_sq = min(min_sq, r2)
        if k * min_sq > running * (1.0 + 1e-12) + 1e-300:
            return False
    return True
