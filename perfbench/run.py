"""Benchmark of the dcprox solvers, run from the root of a dcprox checkout.

    python3 perfbench/run.py --workload cli-bench-n300 --seed 0 --seconds 55 --trace 0

prints one ``name value unit`` line per metric, then the environment, and
as its last line a JSON object with the keys correct, attempted, failed and
metrics. ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` repeats the passes with every layer traced
and reports the per-layer metrics and the tracing overhead instead.
``--workload all`` runs every workload in turn, each in a process of its
own so that none inherits another's memory peak, and ends with one JSON
object over all of them: ``correct`` only if every workload is correct,
summed ``attempted`` and ``failed``, and metrics named ``<workload>/<metric>``.

The package is imported from ``src/`` of the same checkout. Without it the
run exits with status 2 and prints no result. When a solve fails or an
output fails its check, the result is printed with ``correct`` false and
the exit status is 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# one BLAS thread per process: the command-line workload runs two worker
# processes on a two-core machine, and single-threaded kernels keep the
# library workloads comparable with it
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS


def environment():
    """nproc, BLAS threads and library versions of this process."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    threads = {}
    for mod, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = glob.glob(os.path.join(os.path.dirname(mod.__file__) + ".libs",
                                      "*openblas*"))
        try:
            threads[mod.__name__] = getattr(ctypes.CDLL(libs[0]), symbol)()
        except (IndexError, OSError, AttributeError):
            threads[mod.__name__] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {
            "numpy": numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"],
            "scipy": scipy.__config__.CONFIG["Build Dependencies"]["blas"]["version"],
        },
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(workload, seed, trace, result, spec, units, out=sys.stdout):
    """Print every metric of ``result`` with its unit; return the JSON line."""
    print(f"# workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{workload.why}", file=out)
    for name, value in result.metrics.items():
        print(f"{name} {value} {units[name]}", file=out)
    for failure in result.failures:
        print(f"# FAILED {failure}", file=out)
    wanted = spec["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    })


def run_all(names, args):
    """Run each workload in a child process; print its lines and a summary."""
    docs = {}
    code = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        code = max(code, child.returncode)
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {child.returncode} without a "
                  "result", file=sys.stderr)
            return max(code, 2)
        print("\n".join(lines[:-1]))
        docs[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": {f"{name}/{metric}": value for name, d in docs.items()
                    for metric, value in d["metrics"].items()},
    }))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(ROOT, "src", "dcprox", "__init__.py")):
        print(f"error: no dcprox sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dcprox
    import workloads

    if not os.path.abspath(dcprox.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: dcprox imported from {dcprox.__file__}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; pick one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if len(names) > 1:
        return run_all(names, args)
    spec = load_spec()
    units = {**{k: u for k, (u, _) in workloads.END_TO_END.items()}, **workloads.LAYER}
    scratch = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(scratch, exist_ok=True)

    work = workloads.WORKLOADS[names[0]]
    result = workloads.run_workload(work, args.seed, args.seconds,
                                    bool(args.trace), scratch)
    if result.spans is not None:
        result.spans.save(os.path.join(scratch, f"spans-{work.name}.npz"))
    line = report(work, args.seed, args.trace, result, spec, units)
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(line)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
