#!/usr/bin/env python3
"""Per-solver cost of one iteration, for one or more dcprox source trees.

Each tree is the directory that holds a ``dcprox`` package (a checkout's
``src``). It is imported under its own package name, so two versions run
in one process on the same machine state. Every round solves each
(solver, seed) on the sparse-PCA instances of every tree, the trees taking
turns in alternating order; a solve's time is the minimum over the rounds.
The table prints microseconds per iteration (summed minimum times over
summed iterations across seeds); for every tree after the first, the
median over rounds of the paired ratio of its time in a round (summed over
seeds) to tree 0's in the same round, so that a slow stretch of the
machine, which a minimum over rounds credits to whichever tree missed it,
weighs on both sides of a pair; the oracle calls per iteration on the
first seed from the report's counts (prox_h/prox_g/grad_h, the columns
of a trace), and, with ``--calls``, the Python calls into the package per
iteration on the first seed, counted with ``sys.setprofile``. Solves go
through ``cli._solve_one``, as ``dcprox bench`` runs them (traces
recorded, tol 1e-6, budget 2000).

    python3 scripts/iter_cost.py OTHER_CHECKOUT/src src --n 300 --k 16

BLAS threads are pinned with ``--blas-threads`` (default 1) before numpy
is imported; the table's header prints the setting.
"""

import argparse
import importlib.util
import os
import sys
import time
from statistics import median


def load_tree(src, name):
    """Import ``src/dcprox`` as the top-level package ``name``, with its cli."""
    path = os.path.join(os.path.abspath(src), "dcprox")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def count_calls(fn, prefix):
    """fn() with every Python call into files under ``prefix`` counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="+", help="directories holding a dcprox package")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--k", type=int, default=16, help="rounds; each solve keeps its min")
    ap.add_argument("--solvers", default="dce,dce-lbfgs,fbs,dca,drs,three-prox")
    ap.add_argument("--blas-threads", type=int, default=1)
    ap.add_argument("--calls", action="store_true",
                    help="also count package calls per iteration (first seed)")
    args = ap.parse_args()
    if args.k < 1:
        ap.error("--k must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)

    trees = [load_tree(src, f"dcprox_tree{i}") for i, src in enumerate(args.trees)]
    solvers = args.solvers.split(",")
    kinds = {s: "spca3" if s == "three-prox" else "spca" for s in solvers}
    payloads = [{(kind, seed): (t.make_spca3 if kind == "spca3" else t.make_spca)(
        args.n, seed=seed) for kind in set(kinds.values()) for seed in args.seeds}
        for t in trees]

    def solve(i, solver, seed):
        payload = payloads[i][(kinds[solver], seed)]
        return trees[i].cli._solve_one(solver, kinds[solver], payload, 1e-6, 2000)[0]

    best = {}    # (tree, solver, seed) -> min seconds
    iters = {}   # (tree, solver, seed) -> iterations
    oracle = {}  # (tree, solver) -> (prox_h, prox_g, grad_h) per iteration, first seed
    rounds = {}  # (tree, solver) -> seconds of each round, summed over seeds
    for r in range(args.k):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            for solver in solvers:
                spent = 0.0
                for seed in args.seeds:
                    t0 = time.perf_counter()
                    report = solve(i, solver, seed)
                    dt = time.perf_counter() - t0
                    spent += dt
                    key = (i, solver, seed)
                    best[key] = min(best.get(key, dt), dt)
                    iters[key] = report.iterations
                    if seed == args.seeds[0]:
                        oracle[i, solver] = [c / report.iterations
                                             for c in report.counts()]
                rounds.setdefault((i, solver), []).append(spent)

    calls = {}
    if args.calls:
        for i, t in enumerate(trees):
            prefix = os.path.dirname(t.__file__) + os.sep
            for solver in solvers:
                seed = args.seeds[0]
                report, n_calls = count_calls(lambda: solve(i, solver, seed), prefix)
                calls[i, solver] = n_calls / report.iterations

    print(f"n={args.n} seeds={args.seeds} min of {args.k}, "
          f"BLAS threads {args.blas_threads} (OPENBLAS/OMP/MKL_NUM_THREADS)")
    for i, src in enumerate(args.trees):
        print(f"  tree {i}: {os.path.abspath(src)}")
    head = f"{'solver':<11} {'iters':>7}" + "".join(
        f" {'us/it ' + str(i):>10}" for i in range(len(trees))) + "".join(
        f" {'ratio ' + str(i) + '/0':>10}" for i in range(1, len(trees))) + "".join(
        f" {'h/g/grad per it ' + str(i):>18}" for i in range(len(trees)))
    if calls:
        head += "".join(f" {'calls/it ' + str(i):>11}" for i in range(len(trees)))
    print(head)
    totals = [0.0] * len(trees)
    for solver in solvers:
        counts = [sum(iters[i, solver, s] for s in args.seeds) for i in range(len(trees))]
        times = [sum(best[i, solver, s] for s in args.seeds) for i in range(len(trees))]
        totals = [a + b for a, b in zip(totals, times)]
        same = len(set(counts)) == 1
        ratios = [median(a / b for a, b in zip(rounds[i, solver], rounds[0, solver]))
                  for i in range(1, len(trees))]
        row = f"{solver:<11} {counts[0] if same else 'differ':>7}" + "".join(
            f" {1e6 * t / c:>10.1f}" for t, c in zip(times, counts)) + "".join(
            f" {x:>10.3f}" for x in ratios) + "".join(
            f" {'/'.join(f'{x:.2f}' for x in oracle[i, solver]):>18}"
            for i in range(len(trees)))
        if calls:
            row += "".join(f" {calls[i, solver]:>11.1f}" for i in range(len(trees)))
        print(row)
    print("total solve s " + " ".join(f"{t:.3f}" for t in totals))


if __name__ == "__main__":
    main()
