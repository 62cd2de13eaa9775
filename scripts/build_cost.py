#!/usr/bin/env python3
"""Time and traced memory of each sparse-PCA build stage, for one or more
dcprox source trees.

Each tree is the directory that holds a ``dcprox`` package (a checkout's
``src``). Every measured build runs in a fresh interpreter with only that
tree on its path (and this script's directory, for ``run_stages``), so no
tree's build sees the heap that another tree's builds left behind. The
build runs through the tree's own ``problems._spca_instance``, with its
stage functions wrapped in place:

    draws into A      _draw_a              the random draws, staged and split into
                                           A's row-panel CSC pieces
    Gram over blocks  _gram_by_blocks      Sigma = A'A: each dense row panel (at
                                           most 1 MiB up to n = 1024, then 1/160
                                           of A's rows) filled from its piece, which
                                           is then freed, and its SYRK added in
                                           place into one triangle of Sigma
    builder total     _generate_spca_data  both above plus the start vector
    lambda_max        power_lambda_max     the dense eigensolve

then the first forward inverse (``Quadratic(Sigma).prox`` at the dce
stepsize) and the first backward inverse (``Quadratic(Sigma).backward`` at
the drs stepsize). A tree from before the row-block pieces has the same
stage functions: its draws write one CSC matrix, and its Gram sums an
n x n product B.T @ B per block. A tree without a stage function (one from
before the builder was split into stages) prints "-" on that row.

Below the table, one line per tree gives its stated build floor,
``problems._floor_bytes(n)`` ("-" for a tree without that function),
beside the traced "builder total" peak and a resident peak: the VmHWM of a
fresh interpreter, with only the tree on its path, that builds
``make_spca(n, seed=0)`` twice and keeps the first build alive through the
second, as a benchmark keeps a pristine instance beside a fresh build. The
traced peak counts live arrays only; the resident peak also sees the heap
that malloc keeps after a free.

The last row, "import dcprox.cli", is the package's import: its wall time
and the process's peak resident memory (VmHWM) right after it, both taken
in a fresh interpreter per round with only the tree on its path; its
"peak MB" column is that VmHWM, not a traced peak.

Times are the minimum over ``--k`` untraced rounds, each a fresh
interpreter per tree, the trees taking turns in alternating order. Peaks
come from one further run per tree, in an interpreter of its own, under
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

BUILD_STAGES = (("draws into A", "_draw_a"), ("Gram over blocks", "_gram_by_blocks"),
                ("builder total", "_generate_spca_data"), ("lambda_max", "power_lambda_max"))
ROWS = [label for label, _ in BUILD_STAGES] + ["first inverse", "first backward inverse"]
IMPORT_ROW = "import dcprox.cli"
# probes run in a fresh interpreter (``probe``), which then prints their
# ``result`` and the process's VmHWM in bytes
VMHWM = """
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps([result, 1024 * kb]))
"""
# seconds to import the package
IMPORT_PROBE = """import json, time
t0 = time.perf_counter()
import dcprox.cli
result = time.perf_counter() - t0
"""
# ``run_stages`` on the tree on the path; the arguments are this script's
# directory, n, the seed and "1" for a traced run, which follows an untimed
# build at n = 2 that loads what a first build loads. The result is the stage
# seconds and peaks, and the tree's stated build floor at n (None without one)
STAGE_PROBE = """import json, sys
sys.path.insert(0, sys.argv[1])
import dcprox.cli
from build_cost import run_stages
n = int(sys.argv[2])
run_stages(dcprox, 2, 0, False)
stages = run_stages(dcprox, n, int(sys.argv[3]), sys.argv[4] == "1")
floor = getattr(dcprox.problems, "_floor_bytes", None)
result = [stages.seconds, stages.peaks, floor and floor(n)]
"""
# a second build of (n, 0), n its argument, made while the first is alive
BUILD_PROBE = """import json, sys
from dcprox import make_spca
first = make_spca(int(sys.argv[1]), seed=0)
second = make_spca(int(sys.argv[1]), seed=0)
result = None
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


def probe(src, code, *args):
    """(result, VmHWM bytes) of ``code`` run with ``args`` in a fresh
    interpreter whose path holds ``src`` only."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    child = subprocess.run([sys.executable, "-c", code + VMHWM, *args], env=env,
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

    here = os.path.dirname(os.path.abspath(__file__))

    def stages(src, traced):
        return probe(src, STAGE_PROBE, here, str(args.n), str(args.seed),
                     "1" if traced else "0")[0]

    trees = range(len(args.trees))
    best = [{} for _ in trees]
    peaks = [{} for _ in trees]
    floors = [None] * len(trees)
    for r in range(args.k):
        for i in (trees if r % 2 == 0 else reversed(trees)):
            for label, s in stages(args.trees[i], False)[0].items():
                best[i][label] = min(best[i].get(label, s), s)
            seconds, hwm = probe(args.trees[i], IMPORT_PROBE)
            best[i][IMPORT_ROW] = min(best[i].get(IMPORT_ROW, seconds), seconds)
            peaks[i][IMPORT_ROW] = min(peaks[i].get(IMPORT_ROW, hwm), hwm)
    for i in trees:
        _, traced, floors[i] = stages(args.trees[i], True)
        peaks[i].update(traced)

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

    for i in trees:
        stated = "-" if floors[i] is None else size(floors[i])
        traced = size(peaks[i]["builder total"]) if "builder total" in peaks[i] else "-"
        resident = probe(args.trees[i], BUILD_PROBE, str(args.n))[1] / 1e6
        print(f"tree {i}: build floor {stated}, traced builder total {traced}, "
              f"resident peak of two builds {resident:.1f} MB")


if __name__ == "__main__":
    main()
