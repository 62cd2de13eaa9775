"""Workloads of the dcprox benchmark: what a run solves, measures and checks.

A run makes passes over a fixed set of solves, in an order drawn from the
workload seed. Every solve builds a fresh instance, as ``dcprox solve`` and
``dcprox bench`` do, and uses the stepsize policy of the command line:
gamma = GAMMA_POLICY[solver] / lambda_max, with tol 1e-6 and a budget of
2000 iterations throughout. The library workload runs the envelope solvers
without recording a trace; the other solvers, three-prox and recorded
traces are reached through ``dcprox bench`` on the command-line workload.

End-to-end metrics come from untraced passes, which time only the builds
and solver calls the benchmark makes itself; each timing is the fastest
over the passes. With tracing on, the same passes run again with every
layer wrapped in spans. The traced passes must reproduce the untraced
iterations, call counts and final iterates bit for bit, and the wall-time
difference is reported as the tracing overhead.
"""

import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import os
import shutil
import tempfile
from time import perf_counter

import numpy as np

from dcprox import TwoProxConfig, dce_eval, make_spca, run, run_lbfgs, sandwich_bounds
from dcprox import cli
from dcprox.reports import Termination

import tracing

TOL = 1e-6
MAX_ITER = 2000
SOLVERS = cli.SOLVERS
ENVELOPE_SOLVERS = ("dce", "dce-lbfgs")
# a fresh recomputation of a converged residual may differ from the
# solver's own by rounding: run_lbfgs updates prox_h affinely along each
# linesearch instead of re-solving it
RESIDUAL_SLACK = 1e-9
# dcprox bench workers: one per core of the two-core reference machine
CLI_JOBS = 2
# timings are the fastest of the passes; one pass alone has no such choice
MIN_PASSES = 2
# solve_s.dce-lbfgs, the paper's headline figure, is short: one 0.5-s solve
# per pass at n=1000, three of about 45 ms at n=300, and the latter run in
# the bench pool beside another task whose cost depends on the task order.
# After every pass, each instance is solved this many more times by
# dce-lbfgs alone, in this process, to give its minimum more samples.
HEADLINE_REPEATS = 4

# name -> (unit, better); every end-to-end metric a run can report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "solve_s.dce-lbfgs": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "iters": ("count", "lower"),
    "oracle_calls": ("count", "lower"),
    "converged_frac": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYER = {
    "problems.make_spca.s": "s",
    "problems.make_spca3.s": "s",
    "problems.power_lambda_max.s": "s",
    "problems.lambda_max.rel_err": "ratio",
    "prox.prox_h.calls": "count",
    "prox.prox_h.s": "s",
    "prox.prox_h.us_p50": "us",
    "prox.prox_h.computed_gbps": "GB/s",
    "prox.prox_h.first_ms": "ms",
    "prox.prox_g.calls": "count",
    "prox.prox_g.s": "s",
    "prox.prox_f.calls": "count",
    "prox.prox_f.s": "s",
    "prox.backward.calls": "count",
    "prox.backward.s": "s",
    "prox.grad_h.calls": "count",
    "prox.grad_h.s": "s",
    "prox.dca_step.calls": "count",
    "prox.dca_step.s": "s",
    "envelope.phi.calls": "count",
    "envelope.phi.s": "s",
    "envelope.env_value.calls": "count",
    "envelope.env_value.s": "s",
    "two_prox.run.s": "s",
    "two_prox.run.self_s": "s",
    "two_prox.run.us_per_iter": "us",
    "baselines.fbs_run.s": "s",
    "baselines.fbs_run.self_s": "s",
    "baselines.dca_run.s": "s",
    "baselines.dca_run.self_s": "s",
    "baselines.drs_run.s": "s",
    "baselines.drs_run.self_s": "s",
    "three_prox.run3.s": "s",
    "three_prox.run3.self_s": "s",
    "reports.trace_points": "count",
    "lbfgs.run_lbfgs.s": "s",
    "lbfgs.run_lbfgs.self_s": "s",
    "lbfgs.direction.calls": "count",
    "lbfgs.direction.s": "s",
    "lbfgs.linesearch.calls": "count",
    "lbfgs.linesearch.s": "s",
    "lbfgs.linesearch.trials": "count",
    "lbfgs.linesearch.fallbacks": "count",
    "lbfgs.memory.pairs_rejected": "count",
    "cli.tasks": "count",
    "cli.tasks_failed": "count",
    "cli.output_bytes": "bytes",
    "cli.files": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: every solver on instance seeds 0..seeds-1.

    The instance set is fixed, as in ``dcprox bench``, whose sweep always
    covers seeds 0..seeds-1: how hard an instance is (power-iteration
    length in the build, iterations to tolerance) varies so much that two
    sets small enough to solve in one run differ by more than any bound a
    regression check could use. The workload seed sets the order of the
    solves instead: a permutation of the library solves, or of the solver
    list handed to ``dcprox bench``, which reorders its tasks across the
    process pool and the rows of its table.
    """

    name: str
    why: str
    n: int
    seeds: int
    solvers: tuple = SOLVERS
    kind: str = "library"

    def plan(self, seed):
        """(solver, instance seed) of every library solve of one pass."""
        solves = [(solver, i) for i in range(self.seeds) for solver in self.solvers]
        return [solves[j] for j in np.random.default_rng(seed).permutation(len(solves))]

    def solver_order(self, seed):
        rng = np.random.default_rng(seed)
        return tuple(self.solvers[i] for i in rng.permutation(len(self.solvers)))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="spca-n1000-accel",
        why=("n=1000 answer-only solves (no trace) by dce and dce-lbfgs: "
             "instance builds and the BLAS-2 prox_h solve dominate"),
        n=1000, seeds=1, solvers=ENVELOPE_SOLVERS),
    Workload(
        name="cli-bench-n300",
        why=("dcprox bench at n=300 with 2 workers: the only path through the "
             "cli layer, its process pool and its CSV output"),
        n=300, seeds=3, kind="cli"),
)}


# ---------------------------------------------------------------------------
# library solves


def build_instance(n, seed):
    """Fresh (SpcaInstance, DcInstance) for one solve."""
    return make_spca(n, seed=seed)


def call_solver(solver, spca, inst, solvers):
    """One envelope solve under the command-line stepsize policy, untraced.

    ``solvers`` maps a solver name to the function to call, so that a
    traced pass can hand in spanned versions.
    """
    cfg = TwoProxConfig(gamma=cli.GAMMA_POLICY[solver] / spca.lam_max, tol=TOL,
                        max_iter=MAX_ITER, record_trace=False)
    return solvers[solver](inst, cfg, spca.s0)


SOLVER_FUNCTIONS = {"dce": run, "dce-lbfgs": run_lbfgs}


@dataclasses.dataclass
class Outcome:
    """What the benchmark keeps of one solve."""

    solver: str
    n: int
    seed: int
    termination: str = "raised"
    iterations: int = 0
    counts: tuple = (0, 0, 0)
    residual: float = float("nan")
    gamma: float = 0.0
    final_s: np.ndarray = None
    trace_points: int = 0
    failure: str = ""
    wall_s: float = 0.0  # build + solve, as the pass loop saw it

    def key(self):
        """Everything a traced or repeated pass must reproduce exactly."""
        return (self.solver, self.seed, self.termination, self.iterations,
                self.counts, None if self.final_s is None else self.final_s.tobytes())


def screen(out, phi, message):
    """Mark ``out`` failed if it ended in error or left a non-finite value."""
    if out.termination == Termination.NUMERICAL_ERROR.value:
        out.failure = f"numerical error: {message}"
    elif not np.isfinite(out.residual):
        out.failure = f"non-finite residual {out.residual}"
    elif not np.isfinite(phi):
        out.failure = f"non-finite phi {phi} at final_v"


def solve_once(solver, n, seed, tracer, solvers, build):
    """Build, solve and screen one solve; never raises for a solver failure.

    Returns the outcome and the seconds spent screening it, which are not
    part of the workload's wall time.
    """
    out = Outcome(solver=solver, n=n, seed=seed)
    spca, raw = build(n, seed)
    inst = tracing.instrument(tracer, raw)
    try:
        report = call_solver(solver, spca, inst, solvers)
    except Exception as exc:  # a raising solver is a failed solve, not a crash
        out.failure = f"raised {type(exc).__name__}: {exc}"
        return out, 0.0
    t0 = perf_counter()
    out.termination = report.termination.value
    out.iterations = report.iterations
    out.counts = tuple(report.counts())
    out.residual = report.final_residual
    out.gamma = report.gamma
    out.final_s = np.array(report.final_s, copy=True)
    out.trace_points = len(report.trace)
    screen(out, raw.phi(report.final_v), report.message)
    return out, perf_counter() - t0


def verify_converged(outcomes):
    """Recheck each converged envelope solve on a freshly built instance.

    The residual is recomputed with ``dce_eval`` at ``final_s`` and the
    envelope value there must sit inside ``sandwich_bounds``. Failures are
    written into the outcomes. Returns the fresh instances by (n, seed).
    """
    fresh = {}
    for out in outcomes:
        if (out.failure or out.solver not in ENVELOPE_SOLVERS
                or out.termination != Termination.CONVERGED.value):
            continue
        if (out.n, out.seed) not in fresh:
            fresh[(out.n, out.seed)] = make_spca(out.n, seed=out.seed)
        inst = fresh[(out.n, out.seed)][1]
        ev = dce_eval(inst, out.gamma, out.final_s)
        lower, upper = sandwich_bounds(inst, out.gamma, out.final_s)
        slack = RESIDUAL_SLACK * (1.0 + abs(ev.env))
        if not (ev.residual <= TOL + RESIDUAL_SLACK
                and abs(ev.residual - out.residual) <= RESIDUAL_SLACK):
            out.failure = (f"fresh residual {ev.residual:.6e} against reported "
                           f"{out.residual:.6e}")
        elif not (np.isfinite(lower) and np.isfinite(ev.env)
                  and lower - slack <= ev.env <= upper + slack):
            out.failure = (f"envelope {ev.env!r} outside sandwich bounds "
                           f"[{lower!r}, {upper!r}]")
    return fresh


@dataclasses.dataclass
class PassResult:
    """One pass over the workload's solves."""

    wall_s: float
    outcomes: list
    dumps: list
    peak_rss_mb: float
    cli_stats: dict = dataclasses.field(default_factory=dict)

    def keys(self):
        return [o.key() for o in self.outcomes] + [self.cli_stats.get("digest")]


def library_pass(work, seed, tracer, build=build_instance):
    solvers = {name: tracer.spanned(tracing.SOLVER_SPANS[name], fn)
               for name, fn in SOLVER_FUNCTIONS.items()}
    build = tracer.spanned("problems.make_spca", build)
    outcomes = []
    checking = 0.0
    with tracing.patched(tracer):
        t0 = perf_counter()
        for i, (solver, inst_seed) in enumerate(work.plan(seed)):
            tracer.solve_id = i
            t_unit = perf_counter()
            out, spent = solve_once(solver, work.n, inst_seed, tracer,
                                    solvers, build)
            out.wall_s = perf_counter() - t_unit - spent
            outcomes.append(out)
            checking += spent
        wall = perf_counter() - t0 - checking
    dump = {**tracer.dump(), "units": [(o.solver, o.seed) for o in outcomes]}
    return PassResult(wall_s=wall, outcomes=outcomes, dumps=[dump],
                      peak_rss_mb=tracing.peak_rss_mb())


# ---------------------------------------------------------------------------
# the command-line workload


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _dir_stats(root):
    files = 0
    size = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            files += 1
            size += os.path.getsize(path)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return files, size, digest.hexdigest()


def check_cli_output(out_dir, solvers, n, seeds, results, solved):
    """Outcomes of a ``dcprox bench`` run, read back from what it wrote.

    Every task must have a trace whose last row agrees with its result and,
    averaged per (solver, n), with ``comparison.csv``. ``solved`` holds, per
    task, what its worker kept of the solver's report (see
    ``tracing.solved_fields``); it is screened as a library solve is, and
    supplies the final iterate and stepsize for ``verify_converged``.
    """
    table = {(row["solver"], int(row["n"])): row
             for row in _read_csv(os.path.join(out_dir, "comparison.csv"))}
    outcomes = []
    for solver in solvers:
        last_rows = []
        for seed in range(seeds):
            res = results.get((solver, n, seed), {"failed": "no result"})
            report = solved.get((solver, n, seed))
            out = Outcome(solver=solver, n=n, seed=seed)
            outcomes.append(out)
            path = os.path.join(out_dir, "traces", f"{solver}_n{n}_seed{seed}.csv")
            if res["failed"] is not None or report is None or not os.path.exists(path):
                out.failure = f"task failed: {res['failed']}"
                continue
            rows = _read_csv(path)
            last = rows[-1]
            out.iterations = int(last["iter"]) + 1
            out.counts = (int(last["cum_prox_h"]), int(last["cum_prox_g"]),
                          int(last["cum_grad_h"]))
            out.trace_points = len(rows)
            out.termination = report["termination"]
            out.residual = report["residual"]
            out.gamma = report["gamma"]
            out.final_s = report["final_s"]
            if (out.iterations, out.counts) != (
                    res["iters"], (res["prox_h"], res["prox_g"], res["grad_h"])):
                out.failure = "trace disagrees with the task result"
            elif res["converged"] != (out.termination == Termination.CONVERGED.value):
                out.failure = f"task result disagrees with termination {out.termination}"
            elif float(last["residual"]) != out.residual:
                out.failure = (f"trace residual {last['residual']} disagrees with "
                               f"the reported {out.residual!r}")
            else:
                screen(out, report["phi"], report["message"])
            last_rows.append((out.iterations, *out.counts))
        row = table.get((solver, n))
        if row is None or len(last_rows) != seeds:
            for out in outcomes[-seeds:]:
                out.failure = out.failure or "comparison.csv row missing or incomplete"
            continue
        means = [float(np.mean(col)) for col in zip(*last_rows)]
        expect = [float(row[k]) for k in ("mean_iters", "mean_prox_h",
                                          "mean_prox_g", "mean_grad_h")]
        if means != expect:
            for out in outcomes[-seeds:]:
                out.failure = out.failure or (
                    f"comparison.csv {expect} disagrees with traces {means}")
    return outcomes


def cli_pass(work, seed, tracer, scratch):
    order = work.solver_order(seed)
    out_dir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
    argv = ["bench", "--solvers", ",".join(order), "--n-values", str(work.n),
            "--seeds", str(work.seeds), "--jobs", str(CLI_JOBS), "--no-timing",
            "--out", out_dir]
    dumps = []
    results = {}
    solved = {}
    growth = {}  # worker pid -> peak RSS above the worker's RSS at its first task

    def sink(dump, res):
        key = (res["solver"], res["n"], res["seed"])
        solved[key] = dump.pop("solved")
        dumps.append({**dump, "units": [(res["solver"], res["seed"])]})
        results[key] = res
        if dump["pid"] != os.getpid():
            growth[dump["pid"]] = max(growth.get(dump["pid"], 0.0), dump["rss_growth_mb"])

    try:
        with tracing.cli_patched(tracer, sink), \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - t0
        outcomes = check_cli_output(out_dir, order, work.n, work.seeds, results,
                                    solved)
        if code != 0:
            for out in outcomes:
                out.failure = out.failure or f"dcprox bench exited {code}"
        files, size, digest = _dir_stats(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rss = tracing.peak_rss_mb() + sum(growth.values())
    tasks = len(order) * work.seeds
    failed = sum(r["failed"] is not None for r in results.values())
    stats = {"tasks": tasks, "tasks_failed": failed + tasks - len(results),
             "output_bytes": size, "files": files, "digest": digest}
    return PassResult(wall_s=wall, outcomes=outcomes, dumps=dumps,
                      peak_rss_mb=rss, cli_stats=stats)


# ---------------------------------------------------------------------------
# runs and metrics


def fastest(per_pass):
    """Sum over solves of each solve's fastest time over the passes.

    ``per_pass`` holds one {solve: seconds} dict per pass. Other processes
    on the machine slow it in bursts lasting seconds, so the minimum of a
    few repetitions spread over the run is the steadiest estimate.
    """
    return float(sum(min(times[u] for times in per_pass) for u in per_pass[0]))


def end_to_end(work, passes, repeats):
    """End-to-end metrics from untraced passes and headline repeats.

    Counts repeat exactly across passes (checked), so they come from the
    first. Timings are min-of-k: per solve on the library workloads, per
    pass on the command-line one, whose solves run in parallel workers.
    ``solve_s.dce-lbfgs`` takes each solve's minimum over the passes and
    the headline repeats together.
    """
    spans = [tracing.SpanSet(p.dumps) for p in passes]
    solver_spans = list(tracing.SOLVER_SPANS.values())
    lbfgs_span = [tracing.SOLVER_SPANS["dce-lbfgs"]]

    def lbfgs_times(s):
        return {u: t for u, t in s.by_unit(lbfgs_span).items() if u[0] == "dce-lbfgs"}

    outs = passes[0].outcomes
    attempted = len(outs)
    if work.kind == "cli":
        wall = min(p.wall_s for p in passes)
    else:
        wall = fastest([{(o.solver, o.seed): o.wall_s for o in p.outcomes}
                        for p in passes])
    return {
        "setup_s": fastest([s.by_unit(tracing.BUILD_SPANS) for s in spans]),
        "solve_s": fastest([s.by_unit(solver_spans) for s in spans]),
        "solve_s.dce-lbfgs": fastest(
            [lbfgs_times(s) for s in spans + [tracing.SpanSet(p.dumps) for p in repeats]]),
        "wall_s": wall,
        "iters": sum(o.iterations for o in outs),
        "oracle_calls": sum(sum(o.counts) for o in outs),
        "converged_frac": sum(o.termination == Termination.CONVERGED.value
                              for o in outs) / attempted,
        "failed_frac": sum(bool(o.failure) for o in outs) / attempted,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }


def lambda_max_rel_err(work, fresh):
    """Worst relative error of the instances' lambda_max against eigvalsh."""
    worst = 0.0
    for inst_seed in range(work.seeds):
        if (work.n, inst_seed) not in fresh:
            fresh[(work.n, inst_seed)] = make_spca(work.n, seed=inst_seed)
        spca = fresh[(work.n, inst_seed)][0]
        exact = float(np.linalg.eigvalsh(spca.sigma)[-1])
        worst = max(worst, abs(spca.lam_max - exact) / exact)
    return worst


def layer_metrics(work, traced, untraced, rel_err):
    """Per-layer metrics of a traced pass; ``untraced`` is its twin."""
    overhead = traced.wall_s - untraced.wall_s
    spans = tracing.SpanSet(traced.dumps)
    outs = traced.outcomes
    # prox_h of three-prox is the zero function; the quadratic there is f.
    # The trailing entry covers spans outside any solve (solve id -1).
    quad = np.array([u[0] != "three-prox" for u in spans.units] + [False])
    prox_h = spans.mask("prox.prox_h") & quad[spans.solve]
    h_dur = spans.dur[prox_h]
    firsts = spans.first_per_solve(prox_h)
    dce_iters = sum(o.iterations for o in outs if o.solver == "dce")
    m = {
        "problems.make_spca.s": spans.seconds("problems.make_spca"),
        "problems.make_spca3.s": spans.seconds("problems.make_spca3"),
        "problems.power_lambda_max.s": spans.seconds("problems.power_lambda_max"),
        "problems.lambda_max.rel_err": rel_err,
        "prox.prox_h.calls": int(prox_h.sum()),
        "prox.prox_h.s": float(h_dur.sum()),
        "prox.prox_h.us_p50": float(np.median(h_dur)) * 1e6 if len(h_dur) else 0.0,
        "prox.prox_h.computed_gbps": (8.0 * work.n ** 2 * len(h_dur)
                                      / h_dur.sum() / 1e9 if len(h_dur) else 0.0),
        "prox.prox_h.first_ms": float(np.median(firsts)) * 1e3 if len(firsts) else 0.0,
        "two_prox.run.us_per_iter": (spans.seconds("two_prox.run") / dce_iters * 1e6
                                     if dce_iters else 0.0),
        "reports.trace_points": sum(o.trace_points for o in outs),
        "lbfgs.linesearch.trials": spans.counts["lbfgs.linesearch.trials"],
        "lbfgs.linesearch.fallbacks": spans.counts["lbfgs.linesearch.fallbacks"],
        "lbfgs.memory.pairs_rejected": spans.counts["lbfgs.memory.pairs_rejected"],
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / untraced.wall_s,
    }
    for layer in ("prox_g", "prox_f", "backward", "grad_h", "dca_step"):
        m[f"prox.{layer}.calls"] = spans.calls(f"prox.{layer}")
        m[f"prox.{layer}.s"] = spans.seconds(f"prox.{layer}")
    for layer in ("phi", "env_value"):
        m[f"envelope.{layer}.calls"] = spans.calls(f"envelope.{layer}")
        m[f"envelope.{layer}.s"] = spans.seconds(f"envelope.{layer}")
    for layer in ("direction", "linesearch"):
        m[f"lbfgs.{layer}.calls"] = spans.calls(f"lbfgs.{layer}")
        m[f"lbfgs.{layer}.s"] = spans.seconds(f"lbfgs.{layer}")
    for name in tracing.SOLVER_SPANS.values():
        m[f"{name}.s"] = spans.seconds(name)
        m[f"{name}.self_s"] = spans.self_seconds(name)
    for key in ("tasks", "tasks_failed", "output_bytes", "files"):
        m[f"cli.{key}"] = traced.cli_stats.get(key, 0)
    return spans, m


@dataclasses.dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    failures: list
    spans: object = None


def run_workload(work, seed, seconds, trace, scratch, build=build_instance):
    """Measure ``work`` end to end for about ``seconds``, or per layer.

    End to end, passes repeat while the next one is expected to end within
    ``seconds``, and there are at least ``MIN_PASSES``; each is followed
    by ``HEADLINE_REPEATS`` dce-lbfgs passes over copies. With ``trace``, one
    untraced pass and one traced pass run instead: the per-layer metrics
    come from the traced one, the overhead from the two wall times.
    """
    def one_pass(tracer):
        if work.kind == "cli":
            return cli_pass(work, seed, tracer, scratch)
        return library_pass(work, seed, tracer, build)

    # headline repeats solve copies of one untouched build per instance,
    # which stand for fresh builds: each must reproduce the first pass
    lbfgs_only = dataclasses.replace(work, solvers=("dce-lbfgs",))

    def copied(n, inst_seed):
        return copy.deepcopy(pristine[inst_seed])

    t0 = perf_counter()
    pristine = {} if trace else {i: build(work.n, i) for i in range(work.seeds)}
    passes, repeats = [], []
    while not passes or not trace and (
            len(passes) < MIN_PASSES
            or (perf_counter() - t0) * (len(passes) + 1) / len(passes) <= seconds):
        passes.append(one_pass(tracing.Tracer()))
        if not trace:
            repeats += [library_pass(lbfgs_only, seed, tracing.Tracer(), copied)
                        for _ in range(HEADLINE_REPEATS)]
    traced = [one_pass(tracing.Tracer(full=True))] if trace else []

    failures = []
    reference = passes[0].keys()
    for p in passes[1:] + traced:
        if p.keys() != reference:
            failures.append("a repeated or traced pass did not reproduce the "
                            "first pass's iterations, counts and final iterates")
            break
    fresh = verify_converged(passes[0].outcomes)
    # verification of the first pass stands for the identical later ones
    first = {(o.solver, o.seed): o for o in passes[0].outcomes}
    repeated = [o for p in repeats for o in p.outcomes]
    for o in repeated:
        twin = first.get((o.solver, o.seed))
        if twin is None or o.key() != twin.key():
            o.failure = o.failure or ("a headline repeat did not reproduce the "
                                      "first pass's solve")
        else:
            o.failure = o.failure or twin.failure
    every = [o for p in passes + traced for o in p.outcomes] + repeated
    first_failed = sum(bool(o.failure) for o in passes[0].outcomes)
    failed = (first_failed * (len(passes) + len(traced))
              + sum(bool(o.failure) for o in repeated))
    failures += sorted({f"{o.solver} seed {o.seed}: {o.failure}"
                        for o in every if o.failure})

    if trace:
        rel_err = lambda_max_rel_err(work, fresh)
        spans, metrics = layer_metrics(work, traced[0], passes[0], rel_err)
    else:
        spans, metrics = None, end_to_end(work, passes, repeats)
    metrics = {k: int(v) if isinstance(v, (int, np.integer)) else float(v)
               for k, v in metrics.items()}
    return RunResult(correct=not failures, attempted=len(every), failed=failed,
                     metrics=metrics, failures=failures, spans=spans)
