"""Byte pins of the sparse-PCA outputs, the refactor gate of the paper's problem.

Sparse-PCA bytes depend on the BLAS thread count (Sigma's blocked product,
the LAPACK inverse behind prox_h and dsymv all round differently), so the
solves run in one child process with OpenBLAS and OpenMP pinned to one
thread. Run as a script, this file prints the digests of that child as JSON:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 tests/test_spca_bytes.py OUT_DIR

Each ``dcprox solve --no-timing`` is digested as its trace.csv followed by
its summary.json, at the default tol and budget; the ``dcprox bench
--no-timing`` sweep as comparison.csv followed by every trace file, by name;
``dcprox check`` on spca n=30 as its stdout.
A change that moves these bytes changes the math or its rounding, and says
so; it does not re-record them to make a refactor pass.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

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
    "spca/30/dce": (0, "1d322b4cc30fbb25a96605052dd73942ecb7c40dfc07295c60c7d147ad8497d1"),
    "spca/30/dce-lbfgs": (0, "e840c954f7ac8df5e0067998cf15f481b089a739572d13c65dcfacd1b0cd124b"),
    "spca/30/fbs": (0, "ca5f1d523df723341dac52de7147c33a815a5fea156878f041c8c2256172312b"),
    "spca/30/dca": (0, "486ea95786ff2ef68084dc44283f7243d321caddd077417e56d82bd84343ab98"),
    "spca/30/drs": (0, "48fad7cdc9e9624765a7c33eaa9b1e2e760f870adc9a64808f58a000f8ee19cc"),
    "spca/131/dce": (0, "adb081827723dac7e8ea11bb882a6cb12516467c4c9b6226fe504c887ad76dda"),
    "spca/131/dce-lbfgs": (0, "40961a940384b37cab860a7f341ee99dfb44a87aae9e3aef20bb92831c5a45a2"),
    "spca/131/fbs": (0, "9efb87406415272ffe1970f070ed966cd96c72c61c8ca57c3fa1f03aeff29d34"),
    "spca/131/dca": (0, "1b9401e3705a0553feaf2b3e29e631ddd60a4261673c684787a2b0504080ceed"),
    "spca/131/drs": (0, "e61df97941a060592b01e1c9f003dea25ee0b3bb1c870a865d60ee3f2dfd4485"),
    "spca3/30/three-prox": (0, "ea5d5cf58e25367da443339c102615e499d6bf06323ac8f20e694012c6e3f3c3"),
    "bench": (0, "8c17f5342a7859d8b8be4b1c3c39285d03c5193e51b860eccd24b6bb0ebd2ee9"),
}
# name -> (exit code, sha256 of stdout) of ``dcprox check``, at one BLAS thread
CHECK_DIGESTS = {
    "spca/30": (0, "f5c40bea1e8cb752f41435dd104aa0bd00725f051b99bb9884c54560c6f0eacb"),
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


def check_digests():
    """name -> (exit code, sha256 of stdout) of the pinned ``dcprox check``."""
    from dcprox import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["check", json.dumps({"kind": "spca", "n": 30, "seed": 0})])
    return {"spca/30": (code, hashlib.sha256(stdout.getvalue().encode()).hexdigest())}


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


@pytest.fixture(scope="module")
def child_result(tmp_path_factory):
    """The one-thread child's JSON: versions, solve and bench digests, check digests."""
    import dcprox
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcprox.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = tmp_path_factory.mktemp("spca_bytes")
    child = subprocess.run([sys.executable, os.path.abspath(__file__), str(out)],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def moved_pins(pinned, found):
    """Names whose (exit code, digest) differ between ``pinned`` and ``found``."""
    found = {name: tuple(pin) for name, pin in found.items()}
    return sorted(name for name in pinned.keys() | found.keys()
                  if found.get(name) != pinned.get(name))


def test_spca_outputs_match_pinned_bytes_at_one_blas_thread(child_result):
    moved = moved_pins(DIGESTS, child_result["digests"])
    assert not moved, (f"exit codes or bytes moved on {moved}; recorded with "
                       f"{RECORDED_WITH}, running {child_result['versions']}")


def test_spca_check_prints_pinned_bytes_at_one_blas_thread(child_result):
    moved = moved_pins(CHECK_DIGESTS, child_result["checks"])
    assert not moved, (f"exit codes or stdout moved on {moved}; recorded with "
                       f"{RECORDED_WITH}, running {child_result['versions']}")


if __name__ == "__main__":
    # the solves' progress lines go to stderr, the digests alone to stdout
    with contextlib.redirect_stdout(sys.stderr):
        pinned = digests(sys.argv[1])
    print(json.dumps({"versions": library_versions(), "digests": pinned,
                      "checks": check_digests()}))
