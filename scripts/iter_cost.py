#!/usr/bin/env python3
"""Per-solver cost of one iteration, for one or more dcprox source trees.

Each tree is the directory that holds a ``dcprox`` package (a checkout's
``src``). Each tree runs in a worker process of its own, which imports the
tree and builds its sparse-PCA instances once, so each tree's matrices
land on a heap that only its own code has used: two trees compared in one
process read paired ratios of up to 1.10 with identical solve code, from
where each builder left the heap. Only one worker computes at a time.
Every round solves each (solver, seed) on every tree, the trees taking
turns in alternating order; a solve's time is the minimum over the rounds.
The table prints each solver's iterations summed over seeds (per tree,
"/"-joined, where the trees differ), its seconds (each seed's minimum
time, summed over seeds: the solver's share of a sweep's solve time) and
microseconds per iteration (those seconds over those iterations), one
column of each per tree; for every tree after the first, the
median over rounds of the paired ratio of its time in a round (summed over
seeds) to tree 0's in the same round, so that a slow stretch of the
machine, which a minimum over rounds credits to whichever tree missed it,
weighs on both sides of a pair; the oracle calls per iteration on the
first seed from the report's counts (prox_h/prox_g/grad_h, the columns
of a trace), and, with ``--calls``, the Python calls into the package per
iteration on the first seed, counted with ``sys.setprofile``. Solves go
through ``cli._solve_one``, as ``dcprox bench`` runs them (traces
recorded, tol 1e-6, budget 2000).

Under the table, one line per tree gives where the first seed's operators
sit in memory, after the rounds: how many bytes past a 64-byte boundary
Sigma starts, and each filled inverse slot of the quadratic atoms (the
two-term split's h, spca3's f). When n is a multiple of 4, ``dsymv`` is
slower on a matrix that does not start on a 32-byte boundary (at n=300,
1 BLAS thread, 8.4 against 6.6 us), and the heap's history decides which
matrices do; a ratio between trees can come from there.

    python3 scripts/iter_cost.py OTHER_CHECKOUT/src src --n 300 --k 16

BLAS threads are pinned with ``--blas-threads`` (default 1) in the
environment the workers start with; the table's header prints the setting.
"""

import argparse
import importlib.util
import json
import os
import subprocess
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


def worker(args):
    """Serve one tree: build its instances, then answer each command read
    from stdin ("round", "calls" or "layout") with one JSON line on stdout."""
    tree = load_tree(args.worker, "dcprox_tree")
    solvers = args.solvers.split(",")
    kinds = {s: "spca3" if s == "three-prox" else "spca" for s in solvers}
    payloads = {(kind, seed): (tree.make_spca3 if kind == "spca3" else tree.make_spca)(
        args.n, seed=seed) for kind in set(kinds.values()) for seed in args.seeds}

    def solve(solver, seed):
        payload = payloads[kinds[solver], seed]
        return tree.cli._solve_one(solver, kinds[solver], payload, 1e-6, 2000)[0]

    prefix = os.path.dirname(tree.__file__) + os.sep
    for command in sys.stdin:
        if command.strip() == "round":  # [solver, seed, seconds, iterations, counts]
            out = []
            for solver in solvers:
                for seed in args.seeds:
                    t0 = time.perf_counter()
                    report = solve(solver, seed)
                    out.append([solver, seed, time.perf_counter() - t0,
                                report.iterations, list(report.counts())])
        elif command.strip() == "calls":  # package calls per iteration, first seed
            out = {}
            for solver in solvers:
                report, n_calls = count_calls(lambda: solve(solver, args.seeds[0]), prefix)
                out[solver] = n_calls / report.iterations
        else:  # "layout": bytes past a 64-byte boundary, first seed's operators
            out = {}
            for kind, name in (("spca", "h"), ("spca3", "f")):
                if (kind, args.seeds[0]) in payloads:
                    atom = getattr(payloads[kind, args.seeds[0]][1], name)
                    out[f"{kind} Sigma"] = atom.sigma.ctypes.data % 64
                    for sign, slot in zip("+-", atom._slots):
                        if slot is not None:
                            out[f"{name} {sign}gamma inverse"] = slot[1].ctypes.data % 64
        print(json.dumps(out), flush=True)


class Worker:
    """A worker process serving one tree."""

    def __init__(self, src, args):
        argv = [sys.executable, os.path.abspath(__file__), "--worker", src,
                "--n", str(args.n), "--solvers", args.solvers,
                "--seeds", *map(str, args.seeds)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", help="directories holding a dcprox package")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--k", type=int, default=16, help="rounds; each solve keeps its min")
    ap.add_argument("--solvers", default="dce,dce-lbfgs,fbs,dca,drs,three-prox")
    ap.add_argument("--blas-threads", type=int, default=1)
    ap.add_argument("--calls", action="store_true",
                    help="also count package calls per iteration (first seed)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args)
    if not args.trees:
        ap.error("give at least one tree")
    if args.k < 1:
        ap.error("--k must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)

    workers = [Worker(src, args) for src in args.trees]
    solvers = args.solvers.split(",")
    best = {}    # (tree, solver, seed) -> min seconds
    iters = {}   # (tree, solver, seed) -> iterations
    oracle = {}  # (tree, solver) -> (prox_h, prox_g, grad_h) per iteration, first seed
    rounds = {}  # (tree, solver) -> seconds of each round, summed over seeds
    calls = {}
    layouts = []
    try:
        for r in range(args.k):
            order = range(len(workers)) if r % 2 == 0 else reversed(range(len(workers)))
            for i in order:
                spent = {}
                for solver, seed, dt, its, counts in workers[i].ask("round"):
                    spent[solver] = spent.get(solver, 0.0) + dt
                    key = (i, solver, seed)
                    best[key] = min(best.get(key, dt), dt)
                    iters[key] = its
                    if seed == args.seeds[0]:
                        oracle[i, solver] = [c / its for c in counts]
                for solver, seconds in spent.items():
                    rounds.setdefault((i, solver), []).append(seconds)
        if args.calls:
            for i, w in enumerate(workers):
                for solver, per_iter in w.ask("calls").items():
                    calls[i, solver] = per_iter
        layouts = [w.ask("layout") for w in workers]
    finally:
        for w in workers:
            w.close()

    print(f"n={args.n} seeds={args.seeds} min of {args.k}, one worker process per "
          f"tree, BLAS threads {args.blas_threads} (OPENBLAS/OMP/MKL_NUM_THREADS)")
    for i, src in enumerate(args.trees):
        print(f"  tree {i}: {os.path.abspath(src)}")
    head = f"{'solver':<11} {'iters':>11}" + "".join(
        f" {'s ' + str(i):>7}" for i in range(len(workers))) + "".join(
        f" {'us/it ' + str(i):>10}" for i in range(len(workers))) + "".join(
        f" {'ratio ' + str(i) + '/0':>10}" for i in range(1, len(workers))) + "".join(
        f" {'h/g/grad per it ' + str(i):>18}" for i in range(len(workers)))
    if calls:
        head += "".join(f" {'calls/it ' + str(i):>11}" for i in range(len(workers)))
    print(head)
    totals = [0.0] * len(workers)
    for solver in solvers:
        counts = [sum(iters[i, solver, s] for s in args.seeds) for i in range(len(workers))]
        times = [sum(best[i, solver, s] for s in args.seeds) for i in range(len(workers))]
        totals = [a + b for a, b in zip(totals, times)]
        ratios = [median(a / b for a, b in zip(rounds[i, solver], rounds[0, solver]))
                  for i in range(1, len(workers))]
        shown = counts[0] if len(set(counts)) == 1 else "/".join(map(str, counts))
        row = f"{solver:<11} {shown:>11}" + "".join(
            f" {t:>7.3f}" for t in times) + "".join(
            f" {1e6 * t / c:>10.1f}" for t, c in zip(times, counts)) + "".join(
            f" {x:>10.3f}" for x in ratios) + "".join(
            f" {'/'.join(f'{x:.2f}' for x in oracle[i, solver]):>18}"
            for i in range(len(workers)))
        if calls:
            row += "".join(f" {calls[i, solver]:>11.1f}" for i in range(len(workers)))
        print(row)
    print("total solve s " + " ".join(f"{t:.3f}" for t in totals))
    for i, layout in enumerate(layouts):
        print(f"layout {i}, seed {args.seeds[0]}, bytes past a 64-byte boundary: "
              + ", ".join(f"{what} {offset}" for what, offset in layout.items()))


if __name__ == "__main__":
    main()
