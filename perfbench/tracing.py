"""Spans and layer proxies for the dcprox benchmark.

A ``Tracer`` keeps spans in memory as flat integer columns (name id, start,
end, parent span, solve id) and writes them out once, at the end of a run.
Layers are reached from outside the package: atoms of a built instance are
wrapped in forwarding proxies, and a handful of module-level names are
patched for the duration of a ``patched`` block and restored afterwards.
Nothing under ``src/`` is edited.

A plain ``Tracer`` records only instance builds and solver calls, which is
what the end-to-end passes need. A ``full`` one also records every layer
boundary that ``instrument`` and ``patched`` reach.
"""

import dataclasses
import os
import resource
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from dcprox import cli, lbfgs, problems, two_prox
from dcprox.envelope import DcInstance
from dcprox.three_prox import ThreeTermInstance

BUILD_SPANS = ("problems.make_spca", "problems.make_spca3")
SOLVER_SPANS = {
    "dce": "two_prox.run",
    "dce-lbfgs": "lbfgs.run_lbfgs",
    "fbs": "baselines.fbs_run",
    "dca": "baselines.dca_run",
    "drs": "baselines.drs_run",
    "three-prox": "three_prox.run3",
}


class Tracer:
    """In-memory span store; one per process and run."""

    def __init__(self, full=False):
        self.full = full
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.solve = array("q")
        self.counts = Counter()
        self.solve_id = -1
        self._stack = []

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def spanned(self, name, fn):
        """``fn`` wrapped so that each call records one span."""
        nid = self.intern(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)
        return wrapper

    def __len__(self):
        return len(self.start)

    def columns(self):
        """Spans as numpy arrays: dict of name_id/start/end/parent/solve."""
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name_id", "start", "end", "parent", "solve")}

    def clear(self):
        for key in ("name_id", "start", "end", "parent", "solve"):
            setattr(self, key, array("q"))
        self.counts.clear()
        self._stack.clear()

    def dump(self):
        """Picklable snapshot (spans, names, counters) for another process."""
        return {"names": list(self.names), "counts": dict(self.counts),
                **self.columns()}


class SpanSet:
    """Spans merged from one or more tracer dumps, with derived timings."""

    def __init__(self, dumps):
        ids = {}
        cols = {key: [] for key in ("name_id", "start", "end", "parent", "solve")}
        self.counts = Counter()
        self.units = []  # (solver, instance seed) by solve id
        offset = 0
        solve_offset = 0
        for dump in dumps:
            remap = np.array([ids.setdefault(n, len(ids)) for n in dump["names"]],
                             dtype=np.int64)
            cols["name_id"].append(remap[dump["name_id"]])
            cols["start"].append(dump["start"])
            cols["end"].append(dump["end"])
            parent = dump["parent"]
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            solve = dump["solve"]
            cols["solve"].append(np.where(solve >= 0, solve + solve_offset, -1))
            self.counts.update(dump["counts"])
            self.units += dump.get("units", [])
            offset += len(dump["start"])
            solve_offset += len(dump.get("units", []))
        names = [None] * len(ids)
        for name, i in ids.items():
            names[i] = name
        self.names = names
        for key, parts in cols.items():
            setattr(self, key, np.concatenate(parts) if parts
                    else np.zeros(0, dtype=np.int64))
        self.dur = (self.end - self.start).astype(float) * 1e-9
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_dur = self.dur - child

    def mask(self, name):
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name):
        return int(self.mask(name).sum())

    def seconds(self, name):
        return float(self.dur[self.mask(name)].sum())

    def self_seconds(self, name):
        return float(self.self_dur[self.mask(name)].sum())

    def by_unit(self, names):
        """{(solver, instance seed): summed duration of spans in ``names``}."""
        m = np.isin(self.name_id, [i for i, n in enumerate(self.names) if n in names])
        m &= self.solve >= 0
        sums = np.bincount(self.solve[m], weights=self.dur[m],
                           minlength=len(self.units))
        return dict(zip(self.units, sums.tolist()))

    def first_per_solve(self, mask):
        """Duration of the first span of each solve among ``mask``."""
        _, first = np.unique(self.solve[mask], return_index=True)
        return self.dur[mask][first]

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 start=self.start, end=self.end, parent=self.parent,
                 solve=self.solve)


class AtomProxy:
    """Forwards every attribute of a prox atom and times its ``prox``.

    Forwarding covers ``dim``, ``prox_is_affine``, ``supports_diag``,
    ``value`` and ``value_at_prox``: solvers branch on them (``run_lbfgs``
    reuses one prox_h across a linesearch only when ``prox_is_affine``), so
    a proxy that fell back to the base-class defaults would change the
    iterates and the call counts it is meant to observe.
    """

    def __init__(self, atom, prox):
        self._atom = atom
        self.prox = prox

    def __getattr__(self, name):
        return getattr(self._atom, name)


@dataclasses.dataclass(frozen=True)
class TracedDcInstance(DcInstance):
    """A ``DcInstance`` whose objective evaluations are spans."""

    tracer: Tracer = None

    def phi(self, x):
        idx = self.tracer.begin(self.tracer.intern("envelope.phi"))
        try:
            return DcInstance.phi(self, x)
        finally:
            self.tracer.finish(idx)


@dataclasses.dataclass(frozen=True)
class TracedThreeTermInstance(ThreeTermInstance):
    """A ``ThreeTermInstance`` whose objective evaluations are spans."""

    tracer: Tracer = None

    def phi(self, x):
        idx = self.tracer.begin(self.tracer.intern("envelope.phi"))
        try:
            return ThreeTermInstance.phi(self, x)
        finally:
            self.tracer.finish(idx)


def instrument(tracer, inst):
    """The same instance with every layer it exposes wrapped in spans."""
    if not tracer.full:
        return inst

    def atom(part, name):
        return AtomProxy(part, tracer.spanned(name, part.prox))

    if isinstance(inst, ThreeTermInstance):
        return TracedThreeTermInstance(
            f=atom(inst.f, "prox.prox_f"), g=atom(inst.g, "prox.prox_g"),
            h=atom(inst.h, "prox.prox_h"), dim=inst.dim, tracer=tracer)
    smooth = inst.smooth_h
    if smooth is not None:
        smooth = dataclasses.replace(
            smooth, grad=tracer.spanned("prox.grad_h", smooth.grad),
            backward=(tracer.spanned("prox.backward", smooth.backward)
                      if smooth.backward is not None else None))
    dca_step = inst.dca_step
    if dca_step is not None:
        dca_step = tracer.spanned("prox.dca_step", dca_step)
    return TracedDcInstance(
        g=atom(inst.g, "prox.prox_g"), h=atom(inst.h, "prox.prox_h"),
        dim=inst.dim, mu=inst.mu, smooth_h=smooth, dca_step=dca_step,
        name=inst.name, tracer=tracer)


def _traced_linesearch(tracer, original):
    nid = tracer.intern("lbfgs.linesearch")

    def linesearch(eval_at, *args, **kwargs):
        def counted(alpha):
            tracer.counts["lbfgs.linesearch.trials"] += 1
            return eval_at(alpha)
        idx = tracer.begin(nid)
        try:
            alpha, ev = original(counted, *args, **kwargs)
        finally:
            tracer.finish(idx)
        if ev is None:
            tracer.counts["lbfgs.linesearch.fallbacks"] += 1
        return alpha, ev
    return linesearch


def _counted_push(tracer, original):
    def push(memory, ds, dy):
        stored = original(memory, ds, dy)
        if not stored:
            tracer.counts["lbfgs.memory.pairs_rejected"] += 1
        return stored
    return push


@contextmanager
def patched(tracer):
    """Patch module-level layer entry points for a full tracer; restore after.

    Coarse tracers patch nothing.
    """
    if not tracer.full:
        yield
        return
    env_value = tracer.spanned("envelope.env_value", two_prox.env_value_from_pair)
    plan = [
        (problems, "power_lambda_max",
         tracer.spanned("problems.power_lambda_max", problems.power_lambda_max)),
        (two_prox, "env_value_from_pair", env_value),
        (lbfgs, "env_value_from_pair", env_value),
        (lbfgs, "lbfgs_direction",
         tracer.spanned("lbfgs.direction", lbfgs.lbfgs_direction)),
        (lbfgs, "wolfe_linesearch",
         _traced_linesearch(tracer, lbfgs.wolfe_linesearch)),
        (lbfgs.LbfgsMemory, "push", _counted_push(tracer, lbfgs.LbfgsMemory.push)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in plan]
    try:
        for owner, name, value in plan:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# the command-line path: spans recorded inside the bench worker processes

# (tracer, original task, parent pid, sink) while a cli_patched block is
# open. Module state on purpose: ``dcprox bench`` forks its workers, and this
# is how a worker's copy of the patched functions finds its tracer.
_CLI_STATE = None
# (instance, report) of each solver call of the task running in this process
_SOLVED = []
# pid -> peak RSS (MB) of that process when it started its first task
_BASE_RSS = {}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def solved_fields(inst, report):
    """What the parent needs of a task's report to check it from outside."""
    return {"termination": report.termination.value,
            "message": report.message,
            "residual": report.final_residual,
            "gamma": report.gamma,
            "final_s": np.array(report.final_s, copy=True),
            "phi": float(inst.phi(report.final_v))}


def _kept(fn):
    """``fn``, a solver, also leaving its instance and report in ``_SOLVED``."""
    def wrapper(inst, *args, **kwargs):
        report = fn(inst, *args, **kwargs)
        _SOLVED.append((inst, report))
        return report
    return wrapper


def _cli_task(task):
    """Run one ``dcprox bench`` task with its spans recorded.

    Installed as ``cli._bench_task``. The pool pickles it by reference, so a
    worker runs this module's copy; the task's spans, its report's fields
    (``solved_fields``, or None if the solver raised) and the growth of the
    process's peak RSS since its first task travel back to the parent inside
    its result and are handed to the sink there. phi is evaluated after the
    spans are taken, so it adds none.
    """
    tracer, original, parent_pid, sink = _CLI_STATE
    base = _BASE_RSS.setdefault(os.getpid(), peak_rss_mb())
    tracer.clear()
    tracer.solve_id = 0
    _SOLVED.clear()
    res = original(task)
    dump = {**tracer.dump(), "pid": os.getpid(),
            "rss_growth_mb": peak_rss_mb() - base,
            "solved": solved_fields(*_SOLVED[-1]) if _SOLVED else None}
    if os.getpid() == parent_pid:
        sink(dump, res)
    else:
        res["dump"] = dump
    return res


class _SinkingPool(ProcessPoolExecutor):
    """The bench pool, handing each result's span dump to the sink."""

    def map(self, fn, *iterables, **kwargs):
        sink = _CLI_STATE[3]
        for res in super().map(fn, *iterables, **kwargs):
            sink(res.pop("dump"), res)
            yield res


@contextmanager
def cli_patched(tracer, sink):
    """Trace ``dcprox bench`` from inside its tasks.

    Builds and solver calls are wrapped where ``cli`` looks them up, and
    ``sink(dump, result)`` receives every task's spans and result in this
    process, whichever process ran the task.
    """
    global _CLI_STATE

    def build(name, fn):
        spanned = tracer.spanned(name, fn)

        def wrapper(*args, **kwargs):
            spca, inst = spanned(*args, **kwargs)
            return spca, instrument(tracer, inst)
        return wrapper

    plan = [(cli, "make_spca", build("problems.make_spca", cli.make_spca)),
            (cli, "make_spca3", build("problems.make_spca3", cli.make_spca3)),
            (cli, "_bench_task", _cli_task),
            (cli, "ProcessPoolExecutor", _SinkingPool)]
    for solver, attr in (("dce", "run"), ("dce-lbfgs", "run_lbfgs"),
                         ("fbs", "fbs_run"), ("dca", "dca_run"),
                         ("drs", "drs_run"), ("three-prox", "run3")):
        plan.append((cli, attr, _kept(tracer.spanned(SOLVER_SPANS[solver],
                                                     getattr(cli, attr)))))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in plan]
    _CLI_STATE = (tracer, cli._bench_task, os.getpid(), sink)
    try:
        for owner, name, value in plan:
            setattr(owner, name, value)
        with patched(tracer):
            yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
        _CLI_STATE = None
