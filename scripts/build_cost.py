#!/usr/bin/env python3
"""Time and traced memory of each sparse-PCA build stage, for one or more
dcprox source trees.

Each tree is the directory that holds a ``dcprox`` package (a checkout's
``src``), imported under its own package name as in ``iter_cost.py``. The
build runs through the tree's own ``problems._spca_instance``, with its
stage functions wrapped in place:

    draws into A      _draw_a              the random draws, staged and split into
                                           A's row-block CSC pieces
    Gram over blocks  _gram_by_blocks      Sigma = A'A: each dense row block filled
                                           from its piece, which is then freed, and
                                           its SYRK added in place into one
                                           triangle of Sigma
    builder total     _generate_spca_data  both above plus the start vector
    lambda_max        power_lambda_max     the dense eigensolve

then the first forward inverse (``Quadratic(Sigma).prox`` at the dce
stepsize) and the first backward inverse (``Quadratic(Sigma).backward`` at
the drs stepsize). A tree from before the row-block pieces has the same
stage functions: its draws write one CSC matrix, and its Gram sums an
n x n product B.T @ B per block. A tree without a stage function (one from
before the builder was split into stages) prints "-" on that row.

Below the table, one line per tree gives its stated build floor,
``problems._floor_bytes(n)``, beside the traced "builder total" peak, or
"-" for a tree without that function.

The last row, "import dcprox.cli", is the package's import: its wall time
and the process's peak resident memory (VmHWM) right after it, both taken
in a fresh interpreter per round with only the tree on its path; its
"peak MB" column is that VmHWM, not a traced peak.

Times are the minimum over ``--k`` untraced rounds, the trees taking turns
in alternating order. Peaks come from one further run per tree under
``tracemalloc``: the highest traced memory during the stage, above the
level before the build began, so a stage's peak counts what earlier stages
still hold. ``tracemalloc`` sees numpy arrays; LAPACK and BLAS workspace
is outside it.

    python3 scripts/build_cost.py OTHER_CHECKOUT/src src --n 1000 --k 3

BLAS threads are pinned with ``--blas-threads`` (default 1) before numpy
is imported; the table's header prints the setting.
"""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from time import perf_counter

from iter_cost import load_tree

BUILD_STAGES = (("draws into A", "_draw_a"), ("Gram over blocks", "_gram_by_blocks"),
                ("builder total", "_generate_spca_data"), ("lambda_max", "power_lambda_max"))
ROWS = [label for label, _ in BUILD_STAGES] + ["first inverse", "first backward inverse"]
IMPORT_ROW = "import dcprox.cli"
# run in a fresh interpreter: seconds to import the package, then VmHWM in bytes
IMPORT_PROBE = """import json, time
t0 = time.perf_counter()
import dcprox.cli
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps([seconds, 1024 * kb]))
"""


class Probe:
    """Stage wrappers recording seconds and, when traced, peak bytes."""

    def __init__(self, traced):
        self.traced = traced
        self.seconds, self.peaks = {}, {}
        self.open = []  # per enclosing stage, its highest peak before a reset
        self.base = tracemalloc.get_traced_memory()[0] if traced else 0

    def wrap(self, label, fn):
        def staged(*args, **kwargs):
            if self.traced:
                if self.open:
                    self.open[-1] = max(self.open[-1], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            self.open.append(0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[label] = perf_counter() - t0
                inner = self.open.pop()
                if self.traced:
                    peak = max(inner, tracemalloc.get_traced_memory()[1])
                    self.peaks[label] = peak - self.base
                    if self.open:
                        self.open[-1] = max(self.open[-1], peak)
        return staged


def run_stages(tree, n, seed, traced):
    """One build and both first inverses of ``tree``, measured by stage."""
    problems = tree.problems
    saved = {name: getattr(problems, name) for _, name in BUILD_STAGES
             if hasattr(problems, name)}
    if traced:
        tracemalloc.start()
    probe = Probe(traced)
    try:
        for label, name in BUILD_STAGES:
            if name in saved:
                setattr(problems, name, probe.wrap(label, saved[name]))
        spca = problems._spca_instance(n, None, seed)
        policy = tree.cli.GAMMA_POLICY
        probe.wrap("first inverse", tree.Quadratic(spca.sigma).prox)(
            spca.s0, policy["dce"] / spca.lam_max)
        probe.wrap("first backward inverse", tree.Quadratic(spca.sigma).backward)(
            spca.s0, policy["drs"] / spca.lam_max)
    finally:
        for name, fn in saved.items():
            setattr(problems, name, fn)
        if traced:
            tracemalloc.stop()
    return probe


def import_cost(src):
    """(seconds, VmHWM bytes) of ``import dcprox.cli`` from ``src`` in a fresh
    interpreter whose path holds ``src`` only."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="+", help="directories holding a dcprox package")
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k", type=int, default=3, help="untraced rounds; each stage keeps its min")
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args()
    if args.k < 1:
        ap.error("--k must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)

    trees = [load_tree(src, f"dcprox_tree{i}") for i, src in enumerate(args.trees)]
    best = [{} for _ in trees]
    peaks = [{} for _ in trees]
    for r in range(args.k):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            for label, s in run_stages(trees[i], args.n, args.seed, False).seconds.items():
                best[i][label] = min(best[i].get(label, s), s)
            seconds, hwm = import_cost(args.trees[i])
            best[i][IMPORT_ROW] = min(best[i].get(IMPORT_ROW, seconds), seconds)
            peaks[i][IMPORT_ROW] = min(peaks[i].get(IMPORT_ROW, hwm), hwm)
    for i, t in enumerate(trees):
        peaks[i].update(run_stages(t, args.n, args.seed, True).peaks)

    print(f"n={args.n} seed={args.seed} time min of {args.k}, traced peak of 1 "
          f"(import row: VmHWM, min of {args.k}), "
          f"BLAS threads {args.blas_threads} (OPENBLAS/OMP/MKL_NUM_THREADS)")
    for i, src in enumerate(args.trees):
        print(f"  tree {i}: {os.path.abspath(src)}")
    print(f"{'stage':<23}" + "".join(f" {'ms ' + str(i):>9} {'peak MB ' + str(i):>10}"
                                     for i in range(len(trees))))
    for label in ROWS + [IMPORT_ROW]:
        row = f"{label:<23}"
        for i in range(len(trees)):
            if label in best[i]:
                row += f" {1e3 * best[i][label]:>9.1f} {peaks[i][label] / 1e6:>10.1f}"
            else:
                row += f" {'-':>9} {'-':>10}"
        print(row)
    def size(nbytes):
        return f"{nbytes / 1e6:.1f} MB ({nbytes / args.n ** 2:.1f} n^2)"

    for i, t in enumerate(trees):
        floor = getattr(t.problems, "_floor_bytes", None)
        stated = "-" if floor is None else size(floor(args.n))
        traced = size(peaks[i]["builder total"]) if "builder total" in peaks[i] else "-"
        print(f"tree {i}: build floor {stated}, traced builder total {traced}")


if __name__ == "__main__":
    main()
