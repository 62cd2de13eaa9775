"""Byte pins of the sparse-PCA outputs, the refactor gate of the paper's problem.

Sparse-PCA bytes depend on the BLAS thread count (Sigma's blocked product,
the LAPACK inverse behind prox_h and dsymv all round differently), so the
solves run in one child process with OpenBLAS and OpenMP pinned to one
thread. Run as a script, this file prints the digests of that child as JSON:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 tests/test_spca_bytes.py OUT_DIR

Each ``dcprox solve --no-timing`` is digested as its trace.csv followed by
its summary.json, at the default tol and budget; the ``dcprox bench
--no-timing`` sweep as comparison.csv followed by every trace file, by name.
A change that moves these bytes changes the math or its rounding, and says
so; it does not re-record them to make a refactor pass.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys

# the libraries the digests were recorded with; other BLAS builds may round
# differently, which the failure message then shows
RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1",
                 "numpy OpenBLAS": "0.3.31.188.0", "scipy OpenBLAS": "0.3.30"}

SOLVES = ([("spca", n, solver) for n in (30, 131)
           for solver in ("dce", "dce-lbfgs", "fbs", "dca", "drs")]
          + [("spca3", 30, "three-prox")])
BENCH = ["bench", "--no-timing", "--n-values", "100", "--seeds", "2"]

# name -> (exit code, sha256), recorded at one BLAS thread
DIGESTS = {
    "spca/30/dce": (0, "e2fe839e529835be82cee5253be834aaadcde84136601cf57c766dfba7bb3c16"),
    "spca/30/dce-lbfgs": (0, "6f7e3e235fd892cf9bc1170e4e52bd6f84f9d4bf4e33028d9e8a088afa89adff"),
    "spca/30/fbs": (0, "fdf7ee80323407b0bb2ee2a3bb970b07ca9dba2e2bca5251e1ba67dbb372f14a"),
    "spca/30/dca": (0, "89688fd902ddba0182ca191cb177191faeb388f99d10c9869e84ac8da16b203c"),
    "spca/30/drs": (0, "b3c3b74e60e345453ae7bcb1382097978337ef95a7d023166473ddc662a9874d"),
    "spca/131/dce": (0, "11a1bbc935b1d3fb40021e1220b7c247aa1f637129686a6d70979789c4c64bc5"),
    "spca/131/dce-lbfgs": (0, "da223babf9e5f146dd0b781ac887e4d7d646843fa6d649f6bdac965699e25fca"),
    "spca/131/fbs": (0, "6ccf19c971618358f1dd48c8240337916a9e16b96b031b78c8d3ac336cb458d1"),
    "spca/131/dca": (0, "d276f02b08e8a1c7c3558ae8509ad1e72a0edf56f1340834eb314280526ae925"),
    "spca/131/drs": (0, "b0f0c967edc03361cd8a8e0393edad2d86840dbd8d68b073475d34d17bbb04b1"),
    "spca3/30/three-prox": (2, "6a20d946bc3d291ff57a33745cb76932b934e4f343a06c24403ae19ca04f08c6"),
    "bench": (0, "cc67c9bf36006321ad2399ba1102b90e0bac6bdec38965d819c2823dfe64f592"),
}


def _sha(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def library_versions():
    import numpy as np
    import scipy
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            **{f"{mod.__name__} OpenBLAS":
               mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
               for mod in (np, scipy)}}


def digests(out):
    """name -> (exit code, sha256) of every pinned output, written under ``out``."""
    from dcprox import cli

    found = {}
    for kind, n, solver in SOLVES:
        name = f"{kind}/{n}/{solver}"
        run_dir = os.path.join(out, name.replace("/", "_"))
        code = cli.main(["solve", json.dumps({"kind": kind, "n": n, "seed": 0}),
                         "--solver", solver, "--no-timing", "--out", run_dir])
        found[name] = (code, _sha([os.path.join(run_dir, "trace.csv"),
                                   os.path.join(run_dir, "summary.json")]))
    bench_dir = os.path.join(out, "bench")
    code = cli.main(BENCH + ["--out", bench_dir])
    traces = os.path.join(bench_dir, "traces")
    found["bench"] = (code, _sha(
        [os.path.join(bench_dir, "comparison.csv")]
        + [os.path.join(traces, f) for f in sorted(os.listdir(traces))]))
    return found


def test_spca_outputs_match_pinned_bytes_at_one_blas_thread(tmp_path):
    import dcprox
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcprox.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    child = subprocess.run([sys.executable, os.path.abspath(__file__), str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    found = {name: tuple(pin) for name, pin in result["digests"].items()}
    moved = sorted(name for name in DIGESTS.keys() | found.keys()
                   if found.get(name) != DIGESTS.get(name))
    assert not moved, (f"exit codes or bytes moved on {moved}; recorded with "
                       f"{RECORDED_WITH}, running {result['versions']}")


if __name__ == "__main__":
    # the solves' progress lines go to stderr, the digests alone to stdout
    with contextlib.redirect_stdout(sys.stderr):
        pinned = digests(sys.argv[1])
    print(json.dumps({"versions": library_versions(), "digests": pinned}))
