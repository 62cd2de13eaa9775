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


class Trace:
    """A run's trace, one list per column; entry k is the k-th evaluated
    iterate, after its prox tuple is computed and before its step.

    The columns are ``k``, ``env``, ``residual``, ``decrement``, the
    cumulative call counts ``prox_h``, ``prox_g`` and ``grad_h``, and
    ``wall_ns``. ``env`` is the envelope value, or the objective phi for a
    method with no envelope (fbs, dca, drs). An envelope method's phi is
    bounded by two columns, with r = 1 - gamma*mu and v the point's prox_g
    output: phi(v) <= env - r*residual**2/(2*gamma). ``decrement`` is the
    envelope decrease that the step taken from the point claims, checked at
    run time against the next point's envelope: a relaxed step's guaranteed
    decrease, or the Armijo decrease an L-BFGS linesearch accepted. It is 0
    for baseline steps and the final point, from which no step is taken.
    """

    __slots__ = ("k", "env", "residual", "decrement", "prox_h", "prox_g", "grad_h",
                 "wall_ns")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])

    def __len__(self):
        return len(self.k)


@dataclass
class RunReport:
    """Outcome of one solver run.

    ``trace`` is a ``Trace``: every evaluated iterate when the run records
    its trace, else the final point alone. ``phi`` is the objective at the
    final point, NaN when the start point could not be evaluated.
    """

    solver: str
    termination: Termination
    iterations: int
    final_s: np.ndarray
    final_u: np.ndarray
    final_v: np.ndarray
    trace: Trace = field(default_factory=Trace)
    gamma: float = 0.0
    message: str = ""
    phi: float = float("nan")

    @property
    def converged(self):
        return self.termination is Termination.CONVERGED

    @property
    def final_residual(self):
        return self.trace.residual[-1] if self.trace else 0.0

    def counts(self):
        """Final cumulative (prox_h, prox_g, grad_h) call counts."""
        trace = self.trace
        return (trace.prox_h[-1], trace.prox_g[-1], trace.grad_h[-1]) if trace else (0, 0, 0)


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
    """One evaluated iterate, as a solver hands it to ``drive`` and as
    ``two_prox.dce_eval``, the relaxed step's ``evaluate``, returns it.

    ``s`` is the iterate, ``u`` and ``v`` the prox outputs whose gap is
    ``residual``. ``env`` is the value the descent check and the trace
    use; None means the method has no envelope and traces the objective.
    ``grad`` is the envelope gradient (u - v)/gamma, set by L-BFGS and
    ``dce_eval``. ``gaps`` (the prox differences and their squared norms
    behind ``residual``, set by the relaxed step) and ``s_next`` (the
    baselines, which compute their next iterate while evaluating this one)
    carry what the next step reuses.
    """

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    env: Optional[float]
    residual: float
    grad: Optional[np.ndarray] = None
    s_next: Optional[np.ndarray] = None
    gaps: Optional[tuple] = None


def check_stopping(tol, max_iter):
    """ValueError unless tol is nonnegative and finite and max_iter positive."""
    if not 0.0 <= tol < np.inf or max_iter < 1:
        raise ValueError(f"tol must be nonnegative and finite and max_iter positive, "
                         f"got tol={tol}, max_iter={max_iter}")


def check_start(s0, dim):
    """s0 as a float vector; ValueError unless it has shape (dim,) and is finite."""
    s0 = _as_vector(np.array(s0, dtype=float))
    if s0.shape != (dim,):
        raise ValueError(f"start point has shape {s0.shape}, instance dim {dim}")
    if not np.all(np.isfinite(s0)):
        raise ValueError("start point must be finite")
    return s0


def drive(solver, inst, s0, first, advance, phi_at, counter, cfg):
    """Run one solver to convergence, the budget or a numerical error, by
    the ``tol``, ``max_iter`` and ``record_trace`` of its ``TwoProxConfig``
    ``cfg``, whose ``gamma`` the report carries.

    ``first(s0)`` evaluates the start point and returns an
    ``Iterate``; ``advance(it)`` steps from ``it`` and returns the next
    evaluated ``Iterate`` with the envelope decrease the step claims, or
    None for a step that makes no claim. ``phi_at(it)`` is the point at
    which the objective is evaluated: at the final point alone, with
    ``inst.phi``, for the report's ``phi``; and for the env column of each
    kept point whose env is None (a method with no envelope), with
    ``inst.phis`` over a buffer of 64 points, so that an atom's batched
    ``values`` reads its data once per chunk. The run stops at
    ``residual <= tol``, after ``max_iter`` evaluated iterates, or with
    NUMERICAL_ERROR when an envelope rises above a claimed decrease or an
    oracle fails. Without ``record_trace`` the trace keeps only the last
    point. Counts come from ``counter``, which wraps the solver's oracles.
    """
    tol, max_iter, record_trace = cfg.tol, cfg.max_iter, cfg.record_trace
    check_stopping(tol, max_iter)
    dim = inst.dim
    s0 = check_start(s0, dim)
    trace = Trace()
    points = np.empty((64, dim)) if record_trace else None
    blank = []  # the rows of the env column that wait for their phi
    status = Termination.MAX_ITER
    message = ""
    it = None
    k = 0
    t0 = time.perf_counter_ns()

    def keep(env, residual, decrement, mark):
        """Append one point's scalars; a None env is filled by ``flush``."""
        trace.k.append(mark[0])
        trace.env.append(env)
        trace.residual.append(residual)
        trace.decrement.append(decrement)
        trace.prox_h.append(mark[1])
        trace.prox_g.append(mark[2])
        trace.grad_h.append(mark[3])
        trace.wall_ns.append(mark[4])

    def flush():
        """Write phi at the buffered points into their rows of the env column."""
        envs = trace.env
        for row, value in zip(blank, inst.phis(points[:len(blank)]).tolist()):
            envs[row] = value
        blank.clear()

    try:
        it = first(s0)
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
                if it.env is None:
                    points[len(blank)] = phi_at(it)
                    blank.append(len(trace.k))
                keep(it.env, it.residual, 0.0 if claim is None else claim, mark)
                if len(blank) == len(points):
                    flush()
            prev_env, it = it.env, nxt
    except np.linalg.LinAlgError as exc:
        status = Termination.NUMERICAL_ERROR
        message = f"oracle evaluation failed: {exc}"

    if it is None:  # the start point could not be evaluated
        return RunReport(solver=solver, termination=status, iterations=0,
                         final_s=s0, final_u=s0, final_v=s0, gamma=cfg.gamma,
                         message=message)
    if blank:
        flush()
    phi = inst.phi(phi_at(it))
    keep(phi if it.env is None else it.env, it.residual, 0.0, mark)
    return RunReport(solver=solver, termination=status, iterations=k,
                     final_s=it.s, final_u=it.u, final_v=it.v, trace=trace,
                     gamma=cfg.gamma, message=message, phi=phi)
