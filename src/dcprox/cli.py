"""Command-line surface: solve one instance, sweep the benchmark, or check.

Subcommands
-----------
solve  PROBLEM --solver NAME    run one solver, write trace.csv + summary.json
bench  [--solvers A,B,...]      (solver, n, seed) sweep, write a comparison table
check  PROBLEM                  run the invariant battery on an instance

The solve stepsize --gamma is a positive finite X or "X/lmax", X over the
instance's largest eigenvalue (spca and spca3 problems only); without it each
solver takes its default stepsize. Each of the six is called as
solver(instance, TwoProxConfig(gamma, tol, max_iter), start) and validates
the stepsize itself. three-prox runs dce-lbfgs's L-BFGS on the envelope of
the three-term problem's lift to the doubled space, whose coupling is
1/(2*gamma). check's --seed is nonnegative.

Problems are JSON documents, inline or in a file:
    {"kind": "spca",  "n": 100, "seed": 0, "kappa": null}
    {"kind": "spca3", "n": 100, "seed": 0}
    {"kind": "synthetic", "name": "quad-linear-1d"}
A null/absent kappa means the declared default 0.1*max_i sqrt(Sigma_ii);
n is an integer from 2 up to the largest whose build, about 36*n^2 bytes,
fits in physical memory (so is each --n-values entry of bench), seed a
nonnegative integer and kappa finite and nonnegative.
A key not shown for its kind above is an error, and so is --seed on a
synthetic problem, which has no random draw.

bench runs its tasks (n, seed)-major, one solve per (solver, n, seed) task,
on min(--jobs, tasks) processes. Each process builds the instances of an
(n, seed) once and drops them before it builds the next (n, seed); a solve
on a reused instance is bit-identical to one on a fresh build. The two
splits of an (n, seed), spca and spca3, share one draw of Sigma per process.

Trace CSV columns: iter, env, residual, cum_prox_h, cum_prox_g, cum_grad_h,
wall_ns; env is the objective for fbs, dca and drs, which have no envelope;
for three-prox, env and residual are the lift's, and one prox_g is
one prox of the lift's convex part, which proxes g and f together.
summary.json writes a phi_final or final_residual that is inf or
NaN as null, so strict JSON parsers read it. Bench table columns: solver,
n, mean_iters, mean_prox_h, mean_prox_g, mean_grad_h, mean_wall_ns.
Exit codes: 0 converged / all checks pass, 2 iteration budget exhausted,
1 error. Every output embeds the seed.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .baselines import dca_run, drs_run, fbs_run
from .lbfgs import run_lbfgs
from .problems import FLOOR_PER_N2, make_spca, make_spca3, max_spca_n, problem_from_json
from .reports import Termination, check_stopping
from .three_prox import run3
from .two_prox import TwoProxConfig, run

SOLVERS = ("dce", "dce-lbfgs", "fbs", "dca", "drs", "three-prox")
GAMMA_POLICY = {"dce": 0.9, "dce-lbfgs": 0.9, "fbs": 0.9, "dca": 0.9, "drs": 0.45,
                "three-prox": 0.5}


@dataclass
class BenchConfig:
    """Validated benchmark sweep settings, one field per ``bench`` flag."""

    solvers: tuple = ("dce", "dce-lbfgs", "fbs", "dca", "drs")
    n_values: tuple = (100, 190, 280)  # desk scale: n <= 300
    seeds: int = 3
    tol: float = 1e-6
    max_iter: int = 2000
    jobs: int = 1
    timing: bool = True
    out_dir: str = "bench-out"

    def __post_init__(self):
        if not self.solvers or not self.n_values:
            raise ValueError("at least one solver and one n required")
        for name in self.solvers:
            if name not in SOLVERS:
                raise ValueError(f"unknown solver {name!r}")
        # a repeated value would run the same task twice and write its trace twice
        for flag, values in (("--solvers", self.solvers),
                             ("--n-values", self.n_values)):
            if len(set(values)) != len(values):
                raise ValueError(
                    f"{flag} repeats a value: {','.join(map(str, values))}")
        if any(n < 2 for n in self.n_values):
            raise ValueError("n must be at least 2")
        most = max_spca_n()
        if max(self.n_values) > most:
            raise ValueError(f"--n-values holds {max(self.n_values)}, above {most}, the "
                             f"largest n whose build (about {FLOOR_PER_N2}*n^2 bytes) "
                             "fits in memory")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        for name in ("seeds", "max_iter", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def _load_problem(arg, seed=None):
    """Accept an inline JSON document or a path to one; ``seed`` replaces its seed."""
    text = arg
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    return problem_from_json(text, seed)


def _parse_gamma(text):
    """A --gamma value as (X, whether it reads X/lmax); (None, False), the
    default stepsize, without one. ValueError unless X is positive and finite."""
    if text is None:
        return None, False
    body = text.strip()
    per_lmax = body.endswith("/lmax")
    try:
        x = float(body[:-len("/lmax")] if per_lmax else body)
    except ValueError:
        x = math.nan
    if not 0.0 < x < math.inf:
        raise ValueError(f"--gamma must be positive and finite (X or X/lmax), got {text!r}")
    return x, per_lmax


def _problem(solver, kind, payload):
    """The solver's instance, start point, default stepsize and summary info.

    three-prox takes a spca3 or a three-term synthetic problem, every other
    solver a spca or a two-function synthetic one. The default stepsize is
    GAMMA_POLICY[solver] / lambda_max on sparse PCA and the catalogue's
    stepsize on a synthetic problem, which passes the stepsize gate of each
    solver that accepts the entry.
    """
    three = solver == "three-prox"
    if kind == ("spca3" if three else "spca"):
        spca, inst = payload
        return (inst, spca.s0, GAMMA_POLICY[solver] / spca.lam_max,
                {"n": spca.n, "seed": spca.seed, "kappa": spca.kappa})
    inst = (payload.three if three else payload.dc) if kind == "synthetic" else None
    if inst is None:
        form = "three-term" if three else "two-function"
        raise ValueError(f"solver {solver} needs a problem with a {form} form")
    return inst, payload.s0, payload.gamma, {"name": payload.name}


def _solve_one(solver, kind, payload, tol, max_iter, gamma=None):
    """Dispatch one run of ``solver``, one of ``SOLVERS``; returns (report,
    info dict for the summary). ``gamma`` overrides the default stepsize.
    """
    inst, s0, default_gamma, info = _problem(solver, kind, payload)
    if gamma is None:
        gamma = default_gamma
    # the names are looked up per call, so a patched module attribute takes effect
    solve = {"dce": run, "dce-lbfgs": run_lbfgs, "fbs": fbs_run, "dca": dca_run,
             "drs": drs_run, "three-prox": run3}[solver]
    report = solve(inst, TwoProxConfig(gamma=gamma, tol=tol, max_iter=max_iter), s0)
    return report, {**info, "gamma": gamma}


# one trace row, as csv.writer writes it: no field needs quoting, and rows
# end with the excel dialect's \r\n
_TRACE_HEADER = "iter,env,residual,cum_prox_h,cum_prox_g,cum_grad_h,wall_ns\r\n"
_TRACE_ROW = "%d,%r,%r,%d,%d,%d,%d\r\n"


def _write_trace(path, report, timing=True):
    trace = report.trace
    walls = trace.wall_ns if timing else [0] * len(trace)
    with open(path, "w", newline="") as fh:
        fh.write(_TRACE_HEADER)
        fh.writelines(_TRACE_ROW % row for row in zip(
            trace.k, trace.env, trace.residual, trace.prox_h, trace.prox_g,
            trace.grad_h, walls))


def _finite_or_null(x):
    """x, or None (JSON null) if it is inf or NaN, which strict parsers reject."""
    return x if math.isfinite(x) else None


def _write_summary(path, report, info):
    doc = {"solver": report.solver,
           "termination": report.termination.value,
           "iterations": report.iterations,
           "final_residual": _finite_or_null(report.final_residual),
           "phi_final": _finite_or_null(report.phi),
           **info}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args):
    # the flags are checked before the problem, whose build may take seconds
    if args.solver not in SOLVERS:
        raise ValueError(f"unknown solver {args.solver!r}; "
                         f"pick one of {', '.join(SOLVERS)}")
    check_stopping(args.tol, args.max_iter)
    gamma, per_lmax = _parse_gamma(args.gamma)
    kind, payload = _load_problem(args.problem, args.seed)
    if per_lmax:
        if kind not in ("spca", "spca3"):
            raise ValueError("an .../lmax stepsize policy needs a spca problem")
        gamma /= payload[0].lam_max
    report, info = _solve_one(args.solver, kind, payload, args.tol, args.max_iter, gamma)
    os.makedirs(args.out, exist_ok=True)
    _write_trace(os.path.join(args.out, "trace.csv"), report, timing=args.timing)
    _write_summary(os.path.join(args.out, "summary.json"), report, info)
    print(f"{report.solver}: {report.termination.value} after {report.iterations} "
          f"iterations, residual {report.final_residual:.3e}")
    if report.converged:
        return 0
    if report.termination is Termination.MAX_ITER:
        return 2
    print(f"error: {report.message}", file=sys.stderr)
    return 1


# the instances of one (n, seed) this process holds, by (kind, n, seed)
_HELD = {}


def _instance(kind, n, seed):
    """(SpcaInstance, instance) of ``kind`` for (n, seed), built once per process.

    The group's first build draws A and forms Sigma; the other kind's split
    is built on that SpcaInstance, so a process forms one Sigma per
    (n, seed). The instances of a previous (n, seed) are dropped before the
    next one is built, so a process never holds two groups. A build that
    raises leaves nothing behind, and the next task builds again. Reuse is
    safe: the only state an instance keeps is its atoms' per-stepsize
    inverse cache, which is formed the same way whenever it is refilled.
    """
    key = (kind, n, seed)
    if key not in _HELD:
        if any(held[1:] != (n, seed) for held in _HELD):
            _HELD.clear()
        spca = next(iter(_HELD.values()))[0] if _HELD else None
        # looked up here, at call time, so that a wrapped builder is used
        build = make_spca3 if kind == "spca3" else make_spca
        _HELD[key] = build(n, seed=seed, spca=spca)
    return _HELD[key]


def _bench_task(task):
    """One (solver, n, seed) run, executed possibly in a worker process.

    Writes the run's trace into ``trace_dir`` and returns its counts.
    """
    solver, n, seed, tol, max_iter, timing, trace_dir = task
    kind = "spca3" if solver == "three-prox" else "spca"
    try:
        payload = _instance(kind, n, seed)
        report, _ = _solve_one(solver, kind, payload, tol, max_iter)
    except Exception as exc:
        return {"solver": solver, "n": n, "seed": seed, "failed": str(exc)}
    _write_trace(os.path.join(trace_dir, f"{solver}_n{n}_seed{seed}.csv"),
                 report, timing)
    prox_h, prox_g, grad_h = report.counts()
    return {"solver": solver, "n": n, "seed": seed, "failed": None,
            "converged": report.converged,
            "iters": report.iterations, "prox_h": prox_h, "prox_g": prox_g,
            "grad_h": grad_h,
            "wall_ns": report.trace.wall_ns[-1] if (timing and report.trace) else 0}


def cmd_bench(args):
    cfg = BenchConfig(**{f.name: getattr(args, f.name) for f in fields(BenchConfig)})
    trace_dir = os.path.join(cfg.out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # (n, seed)-major, so that consecutive tasks share an instance
    tasks = [(solver, n, seed, cfg.tol, cfg.max_iter, cfg.timing, trace_dir)
             for n in cfg.n_values for seed in range(cfg.seeds)
             for solver in cfg.solvers]
    # a fork pool starts all its workers up front, needed or not
    workers = min(cfg.jobs, len(tasks))
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_bench_task, tasks))
        else:
            results = [_bench_task(t) for t in tasks]
    finally:
        _HELD.clear()

    by_cell = {}
    for res in results:
        by_cell.setdefault((res["solver"], res["n"]), []).append(res)
    table_path = os.path.join(cfg.out_dir, "comparison.csv")
    counts = ("iters", "prox_h", "prox_g", "grad_h", "wall_ns")
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "n", *(f"mean_{c}" for c in counts), "seeds"])
        for solver in cfg.solvers:
            for n in cfg.n_values:
                good = [r for r in by_cell.get((solver, n), []) if r["failed"] is None]
                means = [repr(float(np.mean([r[c] for r in good]))) if good else "nan"
                         for c in counts]
                writer.writerow([solver, n, *means, cfg.seeds])
    print(f"wrote {table_path} ({len(results)} runs, seeds printed per row)")
    return 0 if any(res["failed"] is None for res in results) else 1


def cmd_check(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    kind, payload = _load_problem(args.problem)
    try:
        inst, s0, gamma, _ = _problem("dce", kind, payload)
    except ValueError:
        raise ValueError("check needs a two-function problem") from None
    from .checks import run_instance_checks
    rng = np.random.default_rng(args.seed)
    results = run_instance_checks(inst, gamma, s0, rng)
    all_ok = True
    for name, ok, measured, budget in results:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: measured {measured:.3e} "
              f"(budget {budget:.3e})")
    return 0 if all_ok else 1


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error reported as every other error is: one
    line, "error: ...", on stderr and exit status 1 (status 2 means an
    exhausted iteration budget)."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def _int_list(text):
    """A --n-values argument: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"comma-separated integers expected, got {text!r}") from None


def build_parser():
    parser = _Parser(
        prog="dcprox", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("problem", help="JSON problem document or path to one")
    p_solve.add_argument("--solver", required=True,
                         help="one of " + ", ".join(SOLVERS))
    p_solve.add_argument("--tol", type=float, default=1e-6)
    p_solve.add_argument("--max-iter", type=int, default=2000, dest="max_iter")
    p_solve.add_argument("--gamma", default=None,
                         help='stepsize X or "X/lmax" (spca), e.g. 0.8 or 0.45/lmax')
    p_solve.add_argument("--seed", type=int, default=None,
                         help="override the problem document's seed")
    p_solve.add_argument("--out", default="solve-out")
    p_solve.add_argument("--no-timing", dest="timing", action="store_false",
                         help="zero the wall_ns column for byte-stable output")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run the comparison sweep")
    p_bench.add_argument("--solvers", type=lambda text: tuple(text.split(",")),
                         default=BenchConfig.solvers,
                         help="comma-separated subset of " + ",".join(SOLVERS))
    p_bench.add_argument("--n-values", dest="n_values", default=BenchConfig.n_values,
                         type=_int_list,
                         help="comma-separated problem sizes")
    p_bench.add_argument("--seeds", type=int, default=BenchConfig.seeds,
                         help="seeds per n")
    p_bench.add_argument("--tol", type=float, default=BenchConfig.tol)
    p_bench.add_argument("--max-iter", type=int, default=BenchConfig.max_iter,
                         dest="max_iter")
    p_bench.add_argument("--jobs", type=int, default=BenchConfig.jobs,
                         help="concurrent runs (processes)")
    p_bench.add_argument("--out", default=BenchConfig.out_dir, dest="out_dir",
                         metavar="OUT")
    p_bench.add_argument("--no-timing", dest="timing", action="store_false",
                         help="zero wall_ns columns for byte-stable output")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="run the invariant battery")
    p_check.add_argument("problem")
    p_check.add_argument("--seed", type=int, default=0, help="seed of the sample points")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    """Run one command; a command that raises is reported on one line,
    "error: ...", on stderr, with exit status 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
