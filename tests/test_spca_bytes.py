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
    "spca/30/dce": (0, "e2fe839e529835be82cee5253be834aaadcde84136601cf57c766dfba7bb3c16"),
    "spca/30/dce-lbfgs": (0, "6f7e3e235fd892cf9bc1170e4e52bd6f84f9d4bf4e33028d9e8a088afa89adff"),
    "spca/30/fbs": (0, "d97ba36213a33f6bebddf02519255f37d3b99389072467fc7967a7809e43f7ab"),
    "spca/30/dca": (0, "31ada950f08b92a9a72e52bfac18634c94637be47b84efd335537e49e51654a6"),
    "spca/30/drs": (0, "c30ebeeb07ef04dc0ac631e282f271b16f8e72d0f773b8b5d172ef8e6bc6f919"),
    "spca/131/dce": (0, "11a1bbc935b1d3fb40021e1220b7c247aa1f637129686a6d70979789c4c64bc5"),
    "spca/131/dce-lbfgs": (0, "da223babf9e5f146dd0b781ac887e4d7d646843fa6d649f6bdac965699e25fca"),
    "spca/131/fbs": (0, "ad93c0a7b42dbb2c056d4aac4c2829432e79522bf1b7fa915d5d59a537e7c3c9"),
    "spca/131/dca": (0, "83854357b28ffe109710825dfc8eccf01e77ad3d4838c897c4577268fd521749"),
    "spca/131/drs": (0, "feaa9b37bdec616db8108093ab79f8da0ae4ca2db6267045f88c6cc744e12f9f"),
    "spca3/30/three-prox": (0, "61101c5eea3131b754548d94616a480b1b01aebb16246b49831801d64784fcb0"),
    "bench": (0, "288feb64c4228dc71fb710c2505d3deed13fa872f58f93ed0bb542a1632eb119"),
}
# name -> (exit code, sha256 of stdout) of ``dcprox check``, at one BLAS thread
CHECK_DIGESTS = {
    "spca/30": (0, "dc3e6bafb803739e77365e328222063dee6dd670abcfb53c3a2e73d7661c8816"),
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
