"""Command-line surface: solve one instance, sweep the benchmark, or check.

Subcommands
-----------
solve  PROBLEM --solver NAME    run one solver, write trace.csv + summary.json
bench  [--config FILE] ...      (solver, n, seed) sweep, write a comparison table
check  PROBLEM                  run the invariant battery on an instance

Problems are JSON documents, inline or in a file:
    {"kind": "spca",  "n": 100, "seed": 0, "kappa": null}
    {"kind": "spca3", "n": 100, "seed": 0}
    {"kind": "synthetic", "name": "quad-linear-1d"}
A null/absent kappa means the declared default 0.1*max_i sqrt(Sigma_ii).

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
from dataclasses import dataclass

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
    """Benchmark sweep settings; JSON file overridable by flags."""

    solvers: tuple = ("dce", "dce-lbfgs", "fbs", "dca", "drs")
    n_values: tuple = ()
    seeds: int = 3
    tol: float = 1e-6
    max_iter: int = 2000
    full: bool = False
    jobs: int = 1
    timing: bool = True
    out_dir: str = "bench-out"

    def __post_init__(self):
        if not self.n_values:
            sweep = [int(round(x)) for x in np.linspace(100, 1000, 11)]
            if not self.full:
                sweep = [n for n in sweep if n <= 300]
            self.n_values = tuple(sweep)
        if not self.solvers:
            raise ValueError("at least one solver required")
        for name in self.solvers:
            if name not in SOLVERS:
                raise ValueError(f"unknown solver {name!r}")
        if any(n < 2 for n in self.n_values):
            raise ValueError("n must be at least 2")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def _load_problem(arg, seed_override=None):
    """Accept an inline JSON document or a path to one."""
    text = arg
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    if seed_override is not None:
        doc = json.loads(text)
        doc["seed"] = seed_override
        text = json.dumps(doc)
    return problem_from_json(text)


def _resolve_gamma(policy, solver, payload, kind):
    """Turn a --gamma-policy string into a stepsize, or None for defaults.

    Accepts "X/lmax" (Scale by the instance's largest eigenvalue; sparse-PCA
    problems only) or a plain float meaning an absolute stepsize.
    """
    if policy is None:
        return None
    policy = policy.strip()
    if policy.endswith("/lmax"):
        if kind not in ("spca", "spca3"):
            raise ValueError("an .../lmax stepsize policy needs a spca problem")
        return float(policy[:-len("/lmax")]) / payload[0].lam_max
    return float(policy)


def _solve_one(solver, kind, payload, tol, max_iter, gamma_override=None):
    """Dispatch one run; returns (report, info dict for the summary)."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; pick one of {', '.join(SOLVERS)}")
    if solver == "three-prox":
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

    if kind == "spca":
        spca, inst = payload
        lam_max = spca.lam_max
        gamma = (GAMMA_POLICY[solver] / lam_max if gamma_override is None
                 else gamma_override)
        s0 = spca.s0
        info = {"n": spca.n, "seed": spca.seed, "kappa": spca.kappa, "gamma": gamma}
    elif kind == "synthetic":
        synth = payload
        if synth.dc is None:
            raise ValueError(f"{synth.name} has no two-function form")
        inst = synth.dc
        gamma = synth.gamma if gamma_override is None else gamma_override
        if solver in ("fbs", "dca") and inst.smooth_h is not None:
            lip = inst.smooth_h.lipschitz
            if lip > 0 and gamma >= 1.0 / lip:
                gamma = 0.9 / lip
        if solver == "drs":
            curv = inst.smooth_h.curvature_max if inst.smooth_h else None
            if curv is not None and curv > 0 and gamma >= 1.0 / curv:
                gamma = 0.45 / curv
        s0 = synth.s0
        info = {"name": synth.name, "gamma": gamma}
    else:
        raise ValueError(f"solver {solver} does not apply to problem kind {kind}")

    cfg = TwoProxConfig(gamma=gamma, lam=default_relaxation(gamma, inst.mu),
                        tol=tol, max_iter=max_iter)
    if solver == "dce":
        report = run(inst, cfg, s0)
    elif solver == "dce-lbfgs":
        report = run_lbfgs(inst, cfg, s0)
    elif solver == "fbs":
        report = fbs_run(inst, gamma, tol, max_iter, s0)
    elif solver == "dca":
        report = dca_run(inst, gamma, tol, max_iter, s0)
    elif solver == "drs":
        report = drs_run(inst, gamma, tol, max_iter, s0)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return report, info


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
        gamma = args.gamma
        if gamma is None:
            gamma = _resolve_gamma(args.gamma_policy, args.solver, payload, kind)
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


def _bench_task(task):
    """One (solver, n, seed) run, executed possibly in a worker process."""
    solver, n, seed, tol, max_iter, timing = task
    kind = "spca3" if solver == "three-prox" else "spca"
    try:
        payload = (make_spca3(n, seed=seed) if solver == "three-prox"
                   else make_spca(n, seed=seed))
        report, info = _solve_one(solver, kind, payload, tol, max_iter)
    except Exception as exc:
        return {"solver": solver, "n": n, "seed": seed, "failed": str(exc)}
    prox_h, prox_g, grad_h = report.counts()
    return {"solver": solver, "n": n, "seed": seed, "failed": None,
            "converged": report.termination is Termination.CONVERGED,
            "iters": report.iterations, "prox_h": prox_h, "prox_g": prox_g,
            "grad_h": grad_h,
            "wall_ns": report.trace[-1].wall_ns if (timing and report.trace) else 0,
            "trace": [(tp.k, tp.env, tp.residual, tp.prox_h, tp.prox_g,
                       tp.grad_h, tp.wall_ns if timing else 0)
                      for tp in report.trace]}


def cmd_bench(args):
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides.update(json.load(fh))
    if args.solvers:
        overrides["solvers"] = tuple(args.solvers.split(","))
    if args.n_values:
        overrides["n_values"] = tuple(int(x) for x in args.n_values.split(","))
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.max_iter is not None:
        overrides["max_iter"] = args.max_iter
    if args.full:
        overrides["full"] = True
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    overrides["timing"] = args.timing
    if args.out:
        overrides["out_dir"] = args.out
    if isinstance(overrides.get("solvers"), list):
        overrides["solvers"] = tuple(overrides["solvers"])
    if isinstance(overrides.get("n_values"), list):
        overrides["n_values"] = tuple(overrides["n_values"])
    try:
        cfg = BenchConfig(**overrides)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tasks = [(solver, n, seed, cfg.tol, cfg.max_iter, cfg.timing)
             for solver in cfg.solvers for n in cfg.n_values
             for seed in range(cfg.seeds)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_bench_task, tasks))
    else:
        results = [_bench_task(t) for t in tasks]

    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_dir = os.path.join(cfg.out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    by_cell = {}
    any_ok = False
    for res in results:
        key = (res["solver"], res["n"])
        by_cell.setdefault(key, []).append(res)
        if res["failed"] is None:
            any_ok = True
            path = os.path.join(
                trace_dir, f"{res['solver']}_n{res['n']}_seed{res['seed']}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iter", "env", "residual", "cum_prox_h",
                                 "cum_prox_g", "cum_grad_h", "wall_ns"])
                for row in res["trace"]:
                    writer.writerow([row[0], repr(row[1]), repr(row[2]), *row[3:]])

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
    return 0 if any_ok else 1


def cmd_check(args):
    try:
        kind, payload = _load_problem(args.problem)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from .checks import run_instance_checks
    rng = np.random.default_rng(args.seed)
    if kind == "spca":
        spca, inst = payload
        gamma, s0 = 0.9 / spca.lam_max, spca.s0
    elif kind == "synthetic" and payload.dc is not None:
        inst, gamma, s0 = payload.dc, payload.gamma, payload.s0
    else:
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
    p_solve.add_argument("--gamma", type=float, default=None,
                         help="absolute stepsize override")
    p_solve.add_argument("--gamma-policy", default=None, dest="gamma_policy",
                         help='stepsize policy, e.g. "0.45/lmax" or "0.8"')
    p_solve.add_argument("--seed", type=int, default=None,
                         help="override the problem document's seed")
    p_solve.add_argument("--out", default="solve-out")
    p_solve.add_argument("--no-timing", dest="timing", action="store_false",
                         help="zero the wall_ns column for byte-stable output")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run the comparison sweep")
    p_bench.add_argument("--config", default=None, help="JSON BenchConfig file")
    p_bench.add_argument("--solvers", default=None,
                         help="comma-separated subset of " + ",".join(SOLVERS))
    p_bench.add_argument("--n-values", default=None, dest="n_values",
                         help="comma-separated problem sizes")
    p_bench.add_argument("--seeds", type=int, default=None, help="seeds per n")
    p_bench.add_argument("--tol", type=float, default=None)
    p_bench.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p_bench.add_argument("--full", action="store_true",
                         help="lift the desk-scale cap of n <= 300")
    p_bench.add_argument("--jobs", type=int, default=None,
                         help="concurrent runs (processes)")
    p_bench.add_argument("--out", default=None)
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
    raise SystemExit(main())
