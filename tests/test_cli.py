import csv
import json
import os

import pytest

import dcprox.cli as cli


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


def test_solve_every_solver_runs(tmp_path):
    for solver in ("dce", "dce-lbfgs", "fbs", "dca", "drs"):
        code = cli.main(["solve", '{"kind": "synthetic", "name": "quad-linear-1d"}',
                         "--solver", solver, "--out", str(tmp_path / solver)])
        assert code == 0, solver
    code = cli.main(["solve", '{"kind": "synthetic", "name": "three-quad-1d"}',
                     "--solver", "three-prox", "--out", str(tmp_path / "tp")])
    assert code == 0


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


def test_solve_problem_from_file(tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text('{"kind": "synthetic", "name": "separable-2d"}')
    code = cli.main(["solve", str(spec), "--solver", "dce-lbfgs",
                     "--out", str(tmp_path / "run")])
    assert code == 0


def test_solve_gamma_policy_and_seed_override(tmp_path):
    base = ["solve", '{"kind": "spca", "n": 20, "seed": 0}', "--solver", "dce",
            "--max-iter", "4000"]
    code = cli.main(base + ["--gamma-policy", "0.45/lmax", "--seed", "3",
                            "--out", str(tmp_path / "a")])
    assert code == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["seed"] == 3
    # the policy halved the default stepsize
    code = cli.main(base + ["--seed", "3", "--out", str(tmp_path / "b")])
    assert code == 0
    default = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["gamma"] == pytest.approx(0.5 * default["gamma"])
    # absolute numeric policy and a bad policy
    assert cli.main(base + ["--gamma-policy", "0.001",
                            "--out", str(tmp_path / "c")]) == 0
    assert cli.main(["solve", '{"kind": "synthetic", "name": "quad-linear-1d"}',
                     "--solver", "dce", "--gamma-policy", "0.9/lmax",
                     "--out", str(tmp_path / "d")]) == 1


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


def test_bench_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"solvers": ["dce"], "n_values": [10],
                               "seeds": 2, "max_iter": 3000}))
    out = tmp_path / "bench"
    code = cli.main(["bench", "--config", str(cfg), "--seeds", "1",
                     "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "comparison.csv")
    assert rows[1][-1] == "1"  # the flag beat the file


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


def test_bench_rejects_bad_config(capsys):
    assert cli.main(["bench", "--solvers", "warp-drive"]) == 1
    assert "unknown solver" in capsys.readouterr().err


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
    full = cli.BenchConfig(full=True)
    assert max(full.n_values) == 1000 and len(full.n_values) == 11


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
