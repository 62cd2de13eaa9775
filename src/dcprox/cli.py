"""Command-line surface: solve one instance, sweep the benchmark, or check.

Subcommands
-----------
solve  PROBLEM --solver NAME    run one solver, write trace.csv + summary.json
bench  [--solvers A,B,...]      (solver, n, seed) sweep, write a comparison table
check  PROBLEM                  run the invariant battery on an instance

The solve stepsize --gamma is a number X or "X/lmax", X over the instance's
largest eigenvalue (spca problems only); without it each solver takes its
default stepsize. three-prox takes its stepsizes from its own config and
rejects --gamma.

Problems are JSON documents, inline or in a file:
    {"kind": "spca",  "n": 100, "seed": 0, "kappa": null}
    {"kind": "spca3", "n": 100, "seed": 0}
    {"kind": "synthetic", "name": "quad-linear-1d"}
A null/absent kappa means the declared default 0.1*max_i sqrt(Sigma_ii);
n is an integer, seed a nonnegative one and kappa finite and nonnegative.

bench runs its tasks (n, seed)-major, one solve per (solver, n, seed) task,
on min(--jobs, tasks) processes. Each process builds the instances of an
(n, seed) once and drops them before it builds the next (n, seed); a solve
on a reused instance is bit-identical to one on a fresh build.

Trace CSV columns: iter, env, residual, cum_prox_h, cum_prox_g, cum_grad_h,
wall_ns. Bench table columns: solver, n, mean_iters, mean_prox_h,
mean_prox_g, mean_grad_h, mean_wall_ns. Exit codes: 0 converged / all checks
pass, 2 iteration budget exhausted, 1 error. Every output embeds the seed.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .baselines import dca_run, drs_run, fbs_run
from .lbfgs import run_lbfgs
from .problems import make_spca, make_spca3, problem_from_json
from .reports import Termination
from .three_prox import default_config, run3
from .two_prox import TwoProxConfig, default_relaxation, run

SOLVERS = ("dce", "dce-lbfgs", "fbs", "dca", "drs", "three-prox")
GAMMA_POLICY = {"dce": 0.9, "dce-lbfgs": 0.9, "fbs": 0.9, "dca": 0.9, "drs": 0.45}


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
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        for name in ("seeds", "max_iter", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def _load_problem(arg, seed_override=None):
    """Accept an inline JSON document or a path to one."""
    text = arg
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    if seed_override is not None:
        doc = json.loads(text)
        if isinstance(doc, dict):  # problem_from_json rejects any other document
            doc["seed"] = seed_override
            text = json.dumps(doc)
    return problem_from_json(text)


def _resolve_gamma(text, kind, payload):
    """Turn a --gamma value into a stepsize, or None for the default.

    Accepts a plain float, or "X/lmax": X over the instance's largest
    eigenvalue (sparse-PCA problems only).
    """
    if text is None:
        return None
    text = text.strip()
    if text.endswith("/lmax"):
        if kind not in ("spca", "spca3"):
            raise ValueError("an .../lmax stepsize policy needs a spca problem")
        return float(text[:-len("/lmax")]) / payload[0].lam_max
    return float(text)


def _dc_problem(solver, kind, payload):
    """Two-function instance, start point, default stepsize and summary info.

    The default is GAMMA_POLICY[solver] / lambda_max on sparse PCA. On a
    synthetic problem it is the catalogue's stepsize, shrunk to
    GAMMA_POLICY[solver] / L when it breaks the gate gamma < 1/L of fbs and
    dca (L the gradient's Lipschitz constant) or of drs (L the largest
    curvature).
    """
    if kind == "spca":
        spca, inst = payload
        return (inst, spca.s0, GAMMA_POLICY[solver] / spca.lam_max,
                {"n": spca.n, "seed": spca.seed, "kappa": spca.kappa})
    if kind != "synthetic":
        raise ValueError(f"solver {solver} does not apply to problem kind {kind}")
    synth = payload
    if synth.dc is None:
        raise ValueError(f"{synth.name} has no two-function form")
    inst, gamma = synth.dc, synth.gamma
    gate = {"fbs": "lipschitz", "dca": "lipschitz",
            "drs": "curvature_max"}.get(solver)
    bound = (getattr(inst.smooth_h, gate)
             if gate and inst.smooth_h is not None else None)
    if bound is not None and bound > 0 and gamma >= 1.0 / bound:
        gamma = GAMMA_POLICY[solver] / bound
    return inst, synth.s0, gamma, {"name": synth.name}


def _solve_one(solver, kind, payload, tol, max_iter, gamma=None):
    """Dispatch one run; returns (report, info dict for the summary).

    ``gamma`` overrides the default stepsize of every solver but three-prox,
    which raises ValueError rather than ignore it.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; pick one of {', '.join(SOLVERS)}")
    if solver == "three-prox":
        if gamma is not None:
            raise ValueError("three-prox takes no --gamma; its stepsizes come "
                             "from its own config")
        if kind == "spca3":
            spca, inst = payload
            cfg = default_config(tol=tol, max_iter=max_iter)
            report = run3(inst, cfg, spca.s0, spca.s0)
            info = {"n": spca.n, "seed": spca.seed, "kappa": spca.kappa,
                    "gamma": cfg.gamma, "delta": cfg.delta}
        elif kind == "synthetic" and payload.three is not None:
            synth = payload
            cfg = synth.three_cfg
            report = run3(synth.three, cfg, synth.s0, synth.t0)
            info = {"name": synth.name, "gamma": cfg.gamma, "delta": cfg.delta}
        else:
            raise ValueError("three-prox needs a spca3 or three-term synthetic problem")
        return report, info

    inst, s0, default_gamma, info = _dc_problem(solver, kind, payload)
    if gamma is None:
        gamma = default_gamma
    if solver in ("dce", "dce-lbfgs"):
        cfg = TwoProxConfig(gamma=gamma, lam=default_relaxation(gamma, inst.mu),
                            tol=tol, max_iter=max_iter)
        report = (run if solver == "dce" else run_lbfgs)(inst, cfg, s0)
    else:
        baseline = {"fbs": fbs_run, "dca": dca_run, "drs": drs_run}[solver]
        report = baseline(inst, gamma, tol, max_iter, s0)
    return report, {**info, "gamma": gamma}


def _write_trace(path, report, timing=True):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "env", "residual", "cum_prox_h", "cum_prox_g",
                         "cum_grad_h", "wall_ns"])
        for tp in report.trace:
            writer.writerow([tp.k, repr(tp.env), repr(tp.residual), tp.prox_h,
                             tp.prox_g, tp.grad_h, tp.wall_ns if timing else 0])


def _write_summary(path, report, info, phi_final):
    doc = {"solver": report.solver,
           "termination": report.termination.value,
           "iterations": report.iterations,
           "final_residual": report.final_residual,
           "phi_final": phi_final,
           **info}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args):
    try:
        kind, payload = _load_problem(args.problem, args.seed)
        gamma = _resolve_gamma(args.gamma, kind, payload)
        report, info = _solve_one(args.solver, kind, payload, args.tol,
                                  args.max_iter, gamma)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    phi_final = report.trace[-1].phi if report.trace else float("nan")
    _write_trace(os.path.join(args.out, "trace.csv"), report, timing=args.timing)
    _write_summary(os.path.join(args.out, "summary.json"), report, info, phi_final)
    print(f"{report.solver}: {report.termination.value} after {report.iterations} "
          f"iterations, residual {report.final_residual:.3e}")
    if report.termination is Termination.CONVERGED:
        return 0
    if report.termination is Termination.MAX_ITER:
        return 2
    print(f"error: {report.message}", file=sys.stderr)
    return 1


# the instances of one (n, seed) this process holds, by (kind, n, seed)
_HELD = {}


def _instance(kind, n, seed):
    """(SpcaInstance, instance) of ``kind`` for (n, seed), built once per process.

    The instances of a previous (n, seed) are dropped before the next one
    is built, so a process never holds two groups. A build that raises
    leaves nothing behind, and the next task builds again. Reuse is safe:
    the only state an instance keeps is its atoms' per-stepsize inverse
    cache, which is formed the same way whenever it is refilled.
    """
    key = (kind, n, seed)
    if key not in _HELD:
        if any(held[1:] != (n, seed) for held in _HELD):
            _HELD.clear()
        # looked up here, at call time, so that a wrapped builder is used
        _HELD[key] = (make_spca3 if kind == "spca3" else make_spca)(n, seed=seed)
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
            "converged": report.termination is Termination.CONVERGED,
            "iters": report.iterations, "prox_h": prox_h, "prox_g": prox_g,
            "grad_h": grad_h,
            "wall_ns": report.trace[-1].wall_ns if (timing and report.trace) else 0}


def cmd_bench(args):
    try:
        cfg = BenchConfig(**{f.name: getattr(args, f.name)
                             for f in fields(BenchConfig)})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "n", "mean_iters", "mean_prox_h", "mean_prox_g",
                         "mean_grad_h", "mean_wall_ns", "seeds"])
        for solver in cfg.solvers:
            for n in cfg.n_values:
                cell = by_cell.get((solver, n), [])
                good = [r for r in cell if r["failed"] is None]
                if good:
                    row = [solver, n,
                           repr(float(np.mean([r["iters"] for r in good]))),
                           repr(float(np.mean([r["prox_h"] for r in good]))),
                           repr(float(np.mean([r["prox_g"] for r in good]))),
                           repr(float(np.mean([r["grad_h"] for r in good]))),
                           repr(float(np.mean([r["wall_ns"] for r in good]))),
                           cfg.seeds]
                else:
                    row = [solver, n, "nan", "nan", "nan", "nan", "nan", cfg.seeds]
                writer.writerow(row)
    print(f"wrote {table_path} ({len(results)} runs, seeds printed per row)")
    return 0 if any(res["failed"] is None for res in results) else 1


def cmd_check(args):
    try:
        kind, payload = _load_problem(args.problem)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from .checks import run_instance_checks
    rng = np.random.default_rng(args.seed)
    try:
        inst, s0, gamma, _ = _dc_problem("dce", kind, payload)
    except ValueError:
        print("error: check needs a two-function problem", file=sys.stderr)
        return 1
    results = run_instance_checks(inst, gamma, s0, rng)
    all_ok = True
    for name, ok, measured, budget in results:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: measured {measured:.3e} "
              f"(budget {budget:.3e})")
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
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
                         type=lambda text: tuple(int(x) for x in text.split(",")),
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
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
