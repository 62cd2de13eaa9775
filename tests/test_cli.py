import csv
import hashlib
import json
import os

import pytest

import dcprox.cli as cli
from dcprox.problems import synthetic_catalogue


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_solve_synthetic_converges(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["solve", '{"kind": "synthetic", "name": "quad-linear-1d"}',
                     "--solver", "dce", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["solver"] == "dce"
    assert summary["phi_final"] == pytest.approx(-0.5, abs=1e-6)
    rows = read_csv(out / "trace.csv")
    assert rows[0] == ["iter", "env", "residual", "cum_prox_h", "cum_prox_g",
                       "cum_grad_h", "wall_ns"]
    assert len(rows) == summary["iterations"] + 1


def test_solve_budget_exhaustion_exits_two(tmp_path):
    code = cli.main(["solve", '{"kind": "spca", "n": 20, "seed": 0}',
                     "--solver", "dce", "--max-iter", "1",
                     "--out", str(tmp_path / "x")])
    assert code == 2


def test_solve_gamma_zero_is_an_error(tmp_path, capsys):
    code = cli.main(["solve", '{"kind": "spca", "n": 10, "seed": 0}',
                     "--solver", "dce", "--gamma", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "gamma must be positive" in capsys.readouterr().err


def test_solve_explicit_gamma_is_not_clamped_on_synthetic(tmp_path, capsys):
    # the default stepsize is shrunk into fbs's gate; an explicit one is not
    code = cli.main(["solve", '{"kind": "synthetic", "name": "abs-quad-1d"}',
                     "--solver", "fbs", "--gamma", "5", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "fbs needs gamma < 1/L_h" in capsys.readouterr().err
    code = cli.main(["solve", '{"kind": "synthetic", "name": "abs-quad-1d"}',
                     "--solver", "fbs", "--out", str(tmp_path / "y")])
    assert code == 0


def test_solve_three_prox_rejects_gamma(tmp_path, capsys):
    code = cli.main(["solve", '{"kind": "spca3", "n": 10, "seed": 0}',
                     "--solver", "three-prox", "--gamma", "5",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert "three-prox takes no --gamma" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_solve_unknown_solver_exits_one(tmp_path, capsys):
    code = cli.main(["solve", '{"kind": "synthetic", "name": "quad-linear-1d"}',
                     "--solver", "sorcery", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown solver" in capsys.readouterr().err


def test_solve_malformed_problem_exits_one(tmp_path, capsys):
    code = cli.main(["solve", '{"kind": "nope"}', "--solver", "dce",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.strip()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc,key", [
    ('{"kind": "spca", "n": 30, "kappa": Infinity}', '"kappa"'),
    ('{"kind": "spca", "n": 30, "kappa": NaN}', '"kappa"'),
    ('{"kind": "spca3", "n": 30, "kappa": -0.5}', '"kappa"'),
    ('{"kind": "spca", "n": 30.5}', '"n"'),
    ('{"kind": "spca", "n": true}', '"n"'),
    ('{"kind": "spca"}', '"n"'),
    ('[]', "JSON object"),
    ('{"kind": "spca", "n": 30, "seed": -1}', '"seed"'),
    ('{"kind": "spca", "n": 30, "seed": 1.0}', '"seed"'),
])
def test_solve_rejects_invalid_problem_documents(tmp_path, capsys, doc, key):
    out = tmp_path / "x"
    code = cli.main(["solve", doc, "--solver", "dce", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err
    assert not out.exists()


def test_solve_problem_from_file(tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text('{"kind": "synthetic", "name": "separable-2d"}')
    code = cli.main(["solve", str(spec), "--solver", "dce-lbfgs",
                     "--out", str(tmp_path / "run")])
    assert code == 0


def test_solve_gamma_forms_and_seed_override(tmp_path):
    base = ["solve", '{"kind": "spca", "n": 20, "seed": 0}', "--solver", "dce",
            "--max-iter", "4000"]
    code = cli.main(base + ["--gamma", "0.45/lmax", "--seed", "3",
                            "--out", str(tmp_path / "a")])
    assert code == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["seed"] == 3
    # 0.45/lmax halved the default stepsize
    code = cli.main(base + ["--seed", "3", "--out", str(tmp_path / "b")])
    assert code == 0
    default = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["gamma"] == pytest.approx(0.5 * default["gamma"])
    # an absolute stepsize, and an .../lmax one on a problem without lmax
    assert cli.main(base + ["--gamma", "0.001",
                            "--out", str(tmp_path / "c")]) == 0
    assert cli.main(["solve", '{"kind": "synthetic", "name": "quad-linear-1d"}',
                     "--solver", "dce", "--gamma", "0.9/lmax",
                     "--out", str(tmp_path / "d")]) == 1


def test_solve_malformed_gamma_exits_one(tmp_path, capsys):
    code = cli.main(["solve", '{"kind": "spca", "n": 10, "seed": 0}',
                     "--solver", "dce", "--gamma", "0.45/lam",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert "could not convert" in capsys.readouterr().err


def test_bench_single_cell(tmp_path):
    out = tmp_path / "bench"
    code = cli.main(["bench", "--solvers", "dce", "--n-values", "10",
                     "--seeds", "1", "--max-iter", "4000", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "comparison.csv")
    assert rows[0][:7] == ["solver", "n", "mean_iters", "mean_prox_h",
                           "mean_prox_g", "mean_grad_h", "mean_wall_ns"]
    assert rows[1][0] == "dce" and rows[1][1] == "10"
    assert float(rows[1][2]) > 0
    assert os.path.exists(out / "traces" / "dce_n10_seed0.csv")


# comparison.csv of the sweep below, recorded before the solvers shared one
# driver; any change to iterates, counts or termination shows here
PINNED_TABLE = "".join(row + "\r\n" for row in [
    "solver,n,mean_iters,mean_prox_h,mean_prox_g,mean_grad_h,mean_wall_ns,seeds",
    "dce,12,320.5,320.5,320.5,0.0,0.0,2",
    "dce-lbfgs,12,28.0,29.0,30.0,0.0,0.0,2",
    "fbs,12,177.5,177.5,177.5,177.5,0.0,2",
    "dca,12,80.5,80.5,161.0,80.5,0.0,2",
    "drs,12,160.0,320.0,160.0,0.0,0.0,2",
    "three-prox,12,2682.0,2682.0,5364.0,0.0,0.0,2",
])


def test_bench_deterministic_bytes_without_timing(tmp_path):
    args = ["bench", "--solvers", "dce,dce-lbfgs,fbs,dca,drs,three-prox",
            "--n-values", "12", "--seeds", "2", "--max-iter", "3000", "--no-timing"]
    code = cli.main(args + ["--out", str(tmp_path / "a")])
    assert code == 0
    code = cli.main(args + ["--out", str(tmp_path / "b")])
    assert code == 0
    assert (tmp_path / "a" / "comparison.csv").read_bytes() == PINNED_TABLE.encode()
    assert (tmp_path / "b" / "comparison.csv").read_bytes() == PINNED_TABLE.encode()
    trace = "traces/dce_n12_seed1.csv"
    assert (tmp_path / "a" / trace).read_bytes() == (tmp_path / "b" / trace).read_bytes()


# sha256 of trace.csv followed by summary.json from `dcprox solve --no-timing`
# at the default tol and budget, per synthetic problem and solver. Only the
# synthetic problems are pinned: their bytes do not depend on the BLAS thread
# count, while the sparse-PCA traces do.
SYNTHETIC_DIGESTS = {
    "quad-linear-1d/dce": "06d20366950399ff6191e1f935f007ce0d1042d120f19d488f2724ecf8887359",
    "quad-linear-1d/dce-lbfgs": "9deb4cb756e51170bbaf6f66699abf86f17d9a40c73061001e1337819c1aeb48",
    "quad-linear-1d/fbs": "7281d7bdc411fe746f7e1a4ff589496d25d027c96e31436b496b4b9f5cee4273",
    "quad-linear-1d/dca": "4b73f9ac326c7ebf57a092ac317a5e5b7c4b72aa76617449f7fb37e5d7d7a245",
    "quad-linear-1d/drs": "704a0ffd489dbaf3482e1f88a61256174369b81b82bd7eb4876315f4ff48b55e",
    "abs-quad-1d/dce": "7fc3d1d7b4e8aff206489d8558110df742274431df8f4caca60a93897ec3a7d4",
    "abs-quad-1d/dce-lbfgs": "e8073c0e5b3b6954db36331b686435a44685b4ca4deb2766e3c013f1800b8609",
    "abs-quad-1d/fbs": "d181bbacf118a9ecee8aeae1639196920c79775574823b4a3957ab92a6371db8",
    "abs-quad-1d/drs": "ced0dcef833f75b2c4d86ba374f0ce5cf47a7c09a29cd374a184cfdc8180542e",
    "abs-hypo-1d/dce": "360c1ae0c58c27a6dc640cad7138cd96fa54d0206a5cb79f086c52f01d528681",
    "abs-hypo-1d/dce-lbfgs": "2612dad494d06aa0f3de7411a8705532e7d37f62d3f153abe792a1d45b6ae00c",
    "abs-hypo-1d/fbs": "b2ed0545f0ccb6fabdcce619af6df6bc72f4033a2fb257e003d3f5129170b610",
    "abs-hypo-1d/drs": "fec93b3460e409b077ee46fd05bc1ebec8020c9f434b3d66cee2f341344112fc",
    "separable-2d/dce": "1486ab7654890c0dadd8357afe5b8c392409711c23f8b251889abdfccfd9716e",
    "separable-2d/dce-lbfgs": "419ce83d28d780134a29578ea09eac60473d1359a17d3a735111e62ab6178781",
    "separable-2d/fbs": "6b51f1f86329e1654f95d8d7bc7df46e9c92db0f9e2002b34dc213e875d9e3af",
    "separable-2d/dca": "a119208df43f23f36153967db50b7a6def564489a0748233a465abe817a737dd",
    "separable-2d/drs": "acea9fa07ad5da4989ea77a9a9f91ceba3413eeaecddaad54e00a9c65df83a19",
    "three-quad-1d/three-prox": "4493969359083e35b69f53095d5c6918483172e3f9e8a962b0c42cf349940626",
}


@pytest.mark.parametrize("name,solver", [
    (synth.name, solver) for synth in synthetic_catalogue() for solver in synth.solvers])
def test_solve_without_timing_writes_pinned_bytes_on_synthetic(tmp_path, name, solver):
    code = cli.main(["solve", json.dumps({"kind": "synthetic", "name": name}),
                     "--solver", solver, "--no-timing", "--out", str(tmp_path)])
    assert code == 0
    written = (tmp_path / "trace.csv").read_bytes() + (tmp_path / "summary.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == SYNTHETIC_DIGESTS[f"{name}/{solver}"]


def test_solve_and_bench_write_the_same_trace(tmp_path):
    code = cli.main(["solve", '{"kind": "spca", "n": 12, "seed": 1}',
                     "--solver", "dce-lbfgs", "--no-timing",
                     "--out", str(tmp_path / "solve")])
    assert code == 0
    code = cli.main(["bench", "--solvers", "dce-lbfgs", "--n-values", "12",
                     "--seeds", "2", "--no-timing", "--out", str(tmp_path / "bench")])
    assert code == 0
    bench_trace = tmp_path / "bench" / "traces" / "dce-lbfgs_n12_seed1.csv"
    assert (tmp_path / "solve" / "trace.csv").read_bytes() == bench_trace.read_bytes()


def test_bench_runs_the_solver_named_in_the_module(tmp_path, monkeypatch):
    # the benchmark's tracer swaps solvers by module attribute; bench must
    # look them up there when it runs
    calls = []
    original = cli.run

    def spy(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, "run", spy)
    code = cli.main(["bench", "--solvers", "dce", "--n-values", "10", "--seeds", "1",
                     "--max-iter", "4000", "--out", str(tmp_path / "bench")])
    assert code == 0
    assert calls == ["spca-n10-seed0"]


def test_bench_failed_runs_write_nan_rows(tmp_path, monkeypatch):
    def boom(n, kappa=None, seed=0):
        raise RuntimeError("generator down")
    monkeypatch.setattr(cli, "make_spca", boom)
    out = tmp_path / "bench"
    code = cli.main(["bench", "--solvers", "dce", "--n-values", "10",
                     "--seeds", "1", "--out", str(out)])
    assert code == 1  # every run failed
    rows = read_csv(out / "comparison.csv")
    assert rows[1][2] == "nan"


def test_bench_parallel_jobs_match_serial(tmp_path):
    base = ["bench", "--solvers", "dce", "--n-values", "10,12", "--seeds", "1",
            "--max-iter", "3000", "--no-timing"]
    assert cli.main(base + ["--out", str(tmp_path / "serial")]) == 0
    assert cli.main(base + ["--jobs", "2", "--out", str(tmp_path / "par")]) == 0
    assert (tmp_path / "serial" / "comparison.csv").read_bytes() == \
        (tmp_path / "par" / "comparison.csv").read_bytes()


class RecordingPool:
    """Stands in for the process pool: records its size, runs tasks in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("n_values,seeds,pools", [("10", "1", []),
                                                   ("10,12", "2", [4])])
def test_bench_pool_never_exceeds_task_count(tmp_path, monkeypatch, n_values,
                                             seeds, pools):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code = cli.main(["bench", "--solvers", "dce", "--n-values", n_values,
                     "--seeds", seeds, "--max-iter", "3000", "--jobs", "64",
                     "--out", str(tmp_path / "bench")])
    assert code == 0
    # one task runs in this process; four tasks get four workers, not 64
    assert RecordingPool.sizes == pools


# drs evicts the gamma = 0.9/lambda_max inverse of the shared quadratic, so
# the dce run after it must form that inverse again
REUSE_ORDER = ("drs", "three-prox", "dce", "fbs", "dca", "dce-lbfgs")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_reused_instances_match_fresh_solves(tmp_path, jobs):
    code = cli.main(["bench", "--solvers", ",".join(REUSE_ORDER), "--n-values", "12",
                     "--seeds", "2", "--max-iter", "3000", "--no-timing",
                     "--jobs", jobs, "--out", str(tmp_path / "bench")])
    assert code == 0
    for solver in REUSE_ORDER:
        kind = "spca3" if solver == "three-prox" else "spca"
        for seed in range(2):
            out = tmp_path / f"{solver}-{seed}"
            code = cli.main(["solve", json.dumps({"kind": kind, "n": 12, "seed": seed}),
                             "--solver", solver, "--max-iter", "3000",
                             "--no-timing", "--out", str(out)])
            assert code in (0, 2)  # three-prox on seed 0 spends its budget
            bench_trace = tmp_path / "bench" / "traces" / f"{solver}_n12_seed{seed}.csv"
            assert bench_trace.read_bytes() == (out / "trace.csv").read_bytes()
    # the same rows as the pinned table, in this sweep's solver order
    table = (tmp_path / "bench" / "comparison.csv").read_bytes().decode()
    pinned = PINNED_TABLE.splitlines(keepends=True)
    by_solver = {row.split(",")[0]: row for row in pinned[1:]}
    assert table == "".join([pinned[0]] + [by_solver[s] for s in REUSE_ORDER])


def test_bench_builds_each_instance_once_and_holds_none(tmp_path, monkeypatch):
    builds = []

    def counted(kind, build):
        def wrapper(n, kappa=None, seed=0):
            # the previous (n, seed) is dropped before the next is built
            assert {held[1:] for held in cli._HELD} <= {(n, seed)}
            builds.append((kind, n, seed))
            return build(n, kappa=kappa, seed=seed)
        return wrapper
    monkeypatch.setattr(cli, "make_spca", counted("spca", cli.make_spca))
    monkeypatch.setattr(cli, "make_spca3", counted("spca3", cli.make_spca3))
    code = cli.main(["bench", "--solvers", ",".join(REUSE_ORDER),
                     "--n-values", "10,12", "--seeds", "2", "--max-iter", "3000",
                     "--no-timing", "--out", str(tmp_path / "bench")])
    assert code == 0
    assert sorted(builds) == sorted(
        {(kind, n, seed) for kind in ("spca", "spca3") for n in (10, 12)
         for seed in range(2)})
    assert cli._HELD == {}


def test_bench_retries_a_build_that_raised(tmp_path, monkeypatch):
    calls = []

    def boom(n, kappa=None, seed=0):
        calls.append((n, seed))
        raise RuntimeError("generator down")
    monkeypatch.setattr(cli, "make_spca", boom)
    code = cli.main(["bench", "--solvers", "dce,fbs", "--n-values", "10",
                     "--seeds", "1", "--out", str(tmp_path / "bench")])
    assert code == 1
    # the second task builds again rather than reuse the failure
    assert calls == [(10, 0), (10, 0)]
    assert cli._HELD == {}


def test_bench_rejects_bad_config(capsys):
    assert cli.main(["bench", "--solvers", "warp-drive"]) == 1
    assert "unknown solver" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [
    ("--seeds", "0", "seeds"),
    ("--max-iter", "0", "max_iter"),
    ("--jobs", "0", "jobs"),
    ("--jobs", "-2", "jobs"),
], ids=["seeds-0", "max-iter-0", "jobs-0", "jobs-negative"])
def test_bench_rejects_counts_below_one(tmp_path, capsys, flag, value, field):
    out = tmp_path / "bench"
    code = cli.main(["bench", "--solvers", "dce", "--n-values", "10", flag, value,
                     "--out", str(out)])
    assert code == 1
    assert f"error: {field} must be at least 1" in capsys.readouterr().err
    assert not out.exists()  # rejected before any task or file


@pytest.mark.parametrize("solvers,n_values,flag", [
    ("dce", "10,10", "--n-values"),
    ("dce,fbs,dce", "10", "--solvers"),
], ids=["n-values", "solvers"])
def test_bench_rejects_repeated_values(tmp_path, capsys, solvers, n_values, flag):
    # a repeated value would run one task twice, with two workers writing
    # the same trace file under --jobs 2
    out = tmp_path / "bench"
    code = cli.main(["bench", "--solvers", solvers, "--n-values", n_values,
                     "--seeds", "1", "--out", str(out)])
    assert code == 1
    assert f"error: {flag} repeats a value" in capsys.readouterr().err
    assert not out.exists()


def test_check_passes_on_catalogue(capsys):
    code = cli.main(["check", '{"kind": "synthetic", "name": "quad-linear-1d"}'])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS gradient-fd" in out
    assert "PASS descent-50-iters" in out
    assert "PASS sandwich-bounds" in out
    assert "PASS dce-fbe-equivalence" in out


def test_check_spca_instance(capsys):
    code = cli.main(["check", '{"kind": "spca", "n": 15, "seed": 2}'])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_default_sweep_is_desk_scale():
    cfg = cli.BenchConfig()
    assert max(cfg.n_values) <= 300


def test_bench_config_invariants():
    with pytest.raises(ValueError):
        cli.BenchConfig(n_values=(1,))
    with pytest.raises(ValueError):
        cli.BenchConfig(tol=0.0)
    with pytest.raises(ValueError):
        cli.BenchConfig(solvers=())


def test_help_documents_output_schemas():
    text = cli.build_parser().format_help()
    assert "Trace CSV columns" in text
    assert "cum_prox_h" in text
    assert "Exit codes" in text
