import csv
import hashlib
import json
import os
from types import SimpleNamespace

import pytest

import dcprox.cli as cli
from dcprox import problems
from dcprox.problems import synthetic_catalogue
from dcprox.reports import Termination
from oracles import CATALOGUE_ANSWERS


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


@pytest.mark.parametrize("residual, phi", [(float("nan"), float("inf")),
                                           (float("inf"), float("-inf")),
                                           (1e-3, float("nan"))])
def test_summary_writes_non_finite_numbers_as_null(tmp_path, residual, phi):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = SimpleNamespace(solver="dce", termination=Termination.MAX_ITER,
                             iterations=3, final_residual=residual, phi=phi)
    path = tmp_path / "summary.json"
    cli._write_summary(path, report, {"n": 30})
    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc["phi_final"] is None
    assert doc["final_residual"] == (None if residual != 1e-3 else 1e-3)


def test_solve_budget_exhaustion_exits_two(tmp_path):
    code = cli.main(["solve", '{"kind": "spca", "n": 20, "seed": 0}',
                     "--solver", "dce", "--max-iter", "1",
                     "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("solver", cli.SOLVERS)
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_solve_rejects_a_tol_that_is_not_finite(tmp_path, capsys, tol, solver):
    # nan would run to the budget, inf would report convergence at once
    kind = "spca3" if solver == "three-prox" else "spca"
    out = tmp_path / "x"
    code = cli.main(["solve", json.dumps({"kind": kind, "n": 12}), "--solver", solver,
                     "--tol", tol, "--max-iter", "50", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: tol must be nonnegative and finite") and (
        err.count("\n") == 1), err
    assert not out.exists()


def test_solve_gamma_zero_is_an_error(tmp_path, capsys):
    code = cli.main(["solve", '{"kind": "spca", "n": 10, "seed": 0}',
                     "--solver", "dce", "--gamma", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "gamma must be positive" in capsys.readouterr().err


def test_solve_explicit_gamma_is_not_clamped_on_synthetic(tmp_path, capsys):
    # the catalogue's stepsize passes fbs's gate; an explicit one is not clamped
    code = cli.main(["solve", '{"kind": "synthetic", "name": "abs-quad-1d"}',
                     "--solver", "fbs", "--gamma", "5", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "fbs needs gamma < 1/L_h" in capsys.readouterr().err
    code = cli.main(["solve", '{"kind": "synthetic", "name": "abs-quad-1d"}',
                     "--solver", "fbs", "--out", str(tmp_path / "y")])
    assert code == 0


def test_solve_refuses_a_stepsize_where_prox_h_is_undefined(tmp_path, capsys):
    # abs-hypo-1d has mu = 0.5: at gamma = 3 drs's backward solve exists,
    # but the prox_h behind its stopping test does not
    out = tmp_path / "x"
    code = cli.main(["solve", '{"kind": "synthetic", "name": "abs-hypo-1d"}',
                     "--solver", "drs", "--gamma", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: gamma*mu must stay below 1, got 1.5\n", err
    assert not out.exists()


def test_solve_three_prox_accepts_gamma_per_lmax(tmp_path):
    # three-prox reads --gamma as dce does: 0.5/lmax is its default stepsize
    base = ["solve", '{"kind": "spca3", "n": 10, "seed": 0}', "--solver", "three-prox",
            "--max-iter", "50", "--no-timing"]
    assert cli.main(base + ["--gamma", "0.5/lmax", "--out", str(tmp_path / "a")]) == 2
    assert cli.main(base + ["--out", str(tmp_path / "b")]) == 2
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # a quarter of that stepsize runs a different iteration
    assert cli.main(base + ["--gamma", "0.125/lmax", "--out", str(tmp_path / "c")]) == 2
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    default = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["gamma"] == 0.25 * default["gamma"]


def test_solve_three_prox_on_synthetic_takes_the_budget_and_tol(tmp_path, capsys):
    # the flags reach the three-term synthetic entry as they reach spca3
    out = tmp_path / "x"
    code = cli.main(["solve", '{"kind": "synthetic", "name": "three-quad-1d"}',
                     "--solver", "three-prox", "--max-iter", "5", "--tol", "1e-14",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out.startswith("three-prox: max_iter after 5 iterations")
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["termination"], summary["iterations"]) == ("max_iter", 5)
    assert len(read_csv(out / "trace.csv")) == 1 + 5


@pytest.mark.parametrize("flags,message", [
    (["--solver", "sorcery"], "error: unknown solver 'sorcery'"),
    (["--solver", "dce", "--tol", "nan"], "error: tol must be nonnegative and finite"),
    (["--solver", "dce", "--tol", "inf"], "error: tol must be nonnegative and finite"),
    (["--solver", "dce", "--tol=-1e-6"], "error: tol must be nonnegative and finite"),
    (["--solver", "three-prox", "--max-iter", "0"],
     "error: tol must be nonnegative and finite and max_iter positive"),
    (["--solver", "dce", "--gamma", "abc"], "error: --gamma must be positive and finite"),
    (["--solver", "fbs", "--gamma=-1"], "error: --gamma must be positive and finite"),
    (["--solver", "drs", "--gamma", "nan/lmax"], "error: --gamma must be positive and finite"),
    (["--solver", "dce-lbfgs", "--gamma", "inf"], "error: --gamma must be positive and finite"),
    (["--solver", "three-prox", "--gamma", "0/lmax"], "error: --gamma must be positive and finite"),
], ids=["unknown-solver", "tol-nan", "tol-inf", "tol-negative", "max-iter-0", "gamma-junk",
        "gamma-negative", "gamma-nan-lmax", "gamma-inf", "three-prox-gamma"])
def test_solve_rejects_its_flags_before_building_the_problem(tmp_path, capsys, monkeypatch,
                                                             flags, message):
    def no_build(n, seed):
        raise RuntimeError("the problem was built before the flags were checked")
    monkeypatch.setattr(problems, "_generate_spca_data", no_build)
    out = tmp_path / "x"
    code = cli.main(["solve", '{"kind": "spca", "n": 1000, "seed": 0}', *flags,
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(message) and err.count("\n") == 1, err
    assert not out.exists()


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
    ('{"kind": "spca", "n": 30, "sed": 3}', '"sed"'),
    ('{"kind": "spca", "n": 30, "a\\nb": 3}', '"a\\nb"'),  # a newline, escaped
    ('{"kind": "spca", "n": 30, "kappa": 1%s}' % ("0" * 400), '"kappa"'),  # no float
    ('{"kind": "spca3", "n": 30, "name": "quad-linear-1d"}', '"name"'),
    ('{"kind": "synthetic"}', '"name"'),
    ('{"kind": "synthetic", "name": "nope"}', '"name"'),
    ('{"kind": "synthetic", "name": "quad-linear-1d", "seed": 1}', '"seed"'),
])
def test_solve_rejects_invalid_problem_documents(tmp_path, capsys, doc, key):
    out = tmp_path / "x"
    code = cli.main(["solve", doc, "--solver", "dce", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err
    assert not out.exists()


def test_an_out_path_that_is_a_file_is_an_error_line(tmp_path, capsys):
    # solve makes --out a directory, bench makes --out/traces one
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (["solve", '{"kind": "synthetic", "name": "quad-linear-1d"}',
                  "--solver", "dce", "--out", str(taken)],
                 ["bench", "--solvers", "dce", "--n-values", "10", "--seeds", "1",
                  "--out", str(taken)]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err, err


def test_n_above_the_memory_bound_is_rejected_before_any_build(tmp_path, capsys,
                                                              monkeypatch):
    # the bound is read from the message only; nothing near it is built
    builds = []

    def record(n, kappa=None, seed=0, *, spca=None):
        builds.append(n)
        return None, None
    for module in (problems, cli):
        monkeypatch.setattr(module, "make_spca", record)
        monkeypatch.setattr(module, "make_spca3", record)
    most = problems.max_spca_n()
    assert f"about {problems.FLOOR_PER_N2}*n^2 bytes" in cli.__doc__
    code = cli.main(["solve", '{"kind": "spca", "n": 10000000}', "--solver", "dce",
                     "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f'error: "n" must be at most {most}, the largest whose build '
                   f"(about {problems.FLOOR_PER_N2}*n^2 bytes) fits in this machine's "
                   "memory; got 10000000\n"), err
    # each rejected bench flag is one error line, before any build or file
    out = tmp_path / "b"
    for flags, message in (
            (["--solvers", "dce,warp"], "unknown solver 'warp'; pick one of dce, "),
            (["--n-values", "10,1"], "--n-values must be at least 2, got 1"),
            (["--n-values", "100,10000000"],
             f"--n-values must be at most {most}, the largest whose build "),
            (["--seeds", "0"], "seeds must be at least 1, got 0"),
            (["--jobs", "0"], "jobs must be at least 1, got 0"),
            (["--max-iter", "0"], "tol must be nonnegative and finite and max_iter "
                                  "positive, got tol=1e-06, max_iter=0"),
            (["--n-values", "10,12,10"], "--n-values repeats a value: 10,12,10")):
        code = cli.main(["bench", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, flags
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert builds == [] and not out.exists(), flags
    # n = 1000, about 60 MB, passes the check and reaches the builder
    problems.check_spca_n(1000, "--n-values")
    problems.problem_from_json('{"kind": "spca", "n": 1000}')
    assert builds == [1000]


def test_solve_rejects_seed_on_synthetic(tmp_path, capsys):
    code = cli.main(["solve", '{"kind": "synthetic", "name": "quad-linear-1d"}',
                     "--solver", "dce", "--seed", "4", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --seed") and err.count("\n") == 1, err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("synth", [s for s in synthetic_catalogue() if s.dc is not None],
                         ids=lambda s: s.name)
def test_catalogue_stepsize_passes_every_listed_gate(synth):
    # fbs and dca need gamma < 1/L, drs gamma*curvature_max < 1; the default
    # stepsize of a solve is the catalogue's, with no clamp behind it
    smooth = synth.dc.smooth_h
    for solver in CATALOGUE_ANSWERS[synth.name].solvers:
        if solver in ("fbs", "dca"):
            assert smooth.lipschitz == 0 or synth.gamma < 1.0 / smooth.lipschitz, (
                synth.name, solver)
        elif solver == "drs":
            assert synth.gamma * smooth.curvature_max < 1.0, (synth.name, solver)


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
    assert capsys.readouterr().err == (
        "error: --gamma must be positive and finite (X or X/lmax), got '0.45/lam'\n")


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
    "fbs,12,177.5,0.0,177.5,177.5,0.0,2",
    "dca,12,80.5,0.0,161.0,80.5,0.0,2",
    "drs,12,160.0,160.0,160.0,0.0,0.0,2",
    "three-prox,12,68.5,69.5,78.0,0.0,0.0,2",
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
    "quad-linear-1d/fbs": "42476524ea0d5f1602e0c8c05071011291e76004a896d14798f3e6a2fcd495c2",
    "quad-linear-1d/dca": "4284e5636f07cac045f64fdbce4ed0559b7fc43e2930485833841213594cea5c",
    "quad-linear-1d/drs": "3f8b3dd995fafff99b4be498457b093cf1154007df549cf831cb1341d092d7bd",
    "abs-quad-1d/dce": "7fc3d1d7b4e8aff206489d8558110df742274431df8f4caca60a93897ec3a7d4",
    "abs-quad-1d/dce-lbfgs": "e8073c0e5b3b6954db36331b686435a44685b4ca4deb2766e3c013f1800b8609",
    "abs-quad-1d/fbs": "029c942917db4cc357a5a513e86ed1a0ea527d9b147f7fa80a92478d18eb6dbb",
    "abs-quad-1d/drs": "9fc09670a62c6a5ad74dcaefc52bd1306ca9ba473c9f4f4f35eb31034097a519",
    "abs-hypo-1d/dce": "360c1ae0c58c27a6dc640cad7138cd96fa54d0206a5cb79f086c52f01d528681",
    "abs-hypo-1d/dce-lbfgs": "2612dad494d06aa0f3de7411a8705532e7d37f62d3f153abe792a1d45b6ae00c",
    "abs-hypo-1d/fbs": "4160b93a50a1c08c118a56c3fa421eedd5e82aa71a6e4db0a241476e3fe2f9d8",
    "abs-hypo-1d/drs": "2662d15673ebaaeb670f2a7cc6dc84d28ec21f77457aaff1012bf27598e3cddf",
    "separable-2d/dce": "1486ab7654890c0dadd8357afe5b8c392409711c23f8b251889abdfccfd9716e",
    "separable-2d/dce-lbfgs": "419ce83d28d780134a29578ea09eac60473d1359a17d3a735111e62ab6178781",
    "separable-2d/fbs": "33fa0c051d06edff58dd4492d1bdd4875f8e5b59178ff0d45b834e9a759ae79d",
    "separable-2d/dca": "581c263c8e738fb3b0a10c7a707ae6131e9e38b3efbdc5d014468f5e5293bc64",
    "separable-2d/drs": "a360b0dab5caa15bcc2ff41c0c58675dbb862d9284cdea5391897ad40c4cfbfe",
    "three-quad-1d/three-prox": "911692e454b6a436189c0b456dfbd162fd5891137648fa56339131e63a5f8d35",
}


# sha256 of ``dcprox check`` stdout per two-term synthetic problem, at the
# default --seed; spca n=30 is pinned in test_spca_bytes, at one BLAS thread
CHECK_DIGESTS = {
    "quad-linear-1d": "0aa27b5030d8fa2fa74b4949b5f8b1beda8fe699d7b74f6a893e35d729c89335",
    "abs-quad-1d": "96f672a57fef8425e0b9074a1f1250c6a86871151f0ff18195a5ff7eba1078f4",
    "abs-hypo-1d": "e791658c410fea9d0693903dfe81571d22e9318a8651ca2e2f5a5abb725dc3ac",
    "separable-2d": "85be23c5432202c7cf5648c94ed72f035e09b041c2cab5f9d487d526f3c0f48f",
}


@pytest.mark.parametrize("name", [synth.name for synth in synthetic_catalogue()
                                  if synth.dc is not None])
def test_check_prints_pinned_bytes_on_synthetic(capsys, name):
    code = cli.main(["check", json.dumps({"kind": "synthetic", "name": name})])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_DIGESTS[name]


@pytest.mark.parametrize("name,solver", [
    (name, solver) for name, answers in CATALOGUE_ANSWERS.items()
    for solver in answers.solvers])
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
        calls.append(args[0].dim)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, "run", spy)
    code = cli.main(["bench", "--solvers", "dce", "--n-values", "10", "--seeds", "1",
                     "--max-iter", "4000", "--out", str(tmp_path / "bench")])
    assert code == 0
    assert calls == [10]


def test_bench_failed_runs_write_nan_rows(tmp_path, monkeypatch):
    def boom(n, kappa=None, seed=0, *, spca=None):
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


# drs runs first, so its backward solve fills the shared quadratic's t < 0
# inverse slot before the other solvers fill the t > 0 one; every solve on
# the reused instances must match a fresh build's
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
            assert code == 0
            bench_trace = tmp_path / "bench" / "traces" / f"{solver}_n12_seed{seed}.csv"
            assert bench_trace.read_bytes() == (out / "trace.csv").read_bytes()
    # the same rows as the pinned table, in this sweep's solver order
    table = (tmp_path / "bench" / "comparison.csv").read_bytes().decode()
    pinned = PINNED_TABLE.splitlines(keepends=True)
    by_solver = {row.split(",")[0]: row for row in pinned[1:]}
    assert table == "".join([pinned[0]] + [by_solver[s] for s in REUSE_ORDER])


def test_bench_builds_each_instance_once_and_holds_none(tmp_path, monkeypatch):
    # one Sigma per (n, seed): the group's second kind is built on the first's
    draws = []
    original = problems._spca_instance

    def counted(n, kappa, seed):
        # the previous (n, seed) is dropped before the next is built
        assert {held[1:] for held in cli._HELD} <= {(n, seed)}
        draws.append((n, seed))
        return original(n, kappa, seed)
    monkeypatch.setattr(problems, "_spca_instance", counted)
    code = cli.main(["bench", "--solvers", ",".join(REUSE_ORDER),
                     "--n-values", "10,12", "--seeds", "2", "--max-iter", "3000",
                     "--no-timing", "--out", str(tmp_path / "bench")])
    assert code == 0
    assert sorted(draws) == [(n, seed) for n in (10, 12) for seed in range(2)]
    assert cli._HELD == {}


def test_bench_retries_a_build_that_raised(tmp_path, monkeypatch):
    calls = []

    def boom(n, kappa=None, seed=0, *, spca=None):
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


@pytest.mark.parametrize("flag,value,message", [
    ("--seeds", "0", "seeds must be at least 1"),
    ("--max-iter", "0", "tol must be nonnegative and finite and max_iter positive"),
    ("--jobs", "0", "jobs must be at least 1"),
    ("--jobs", "-2", "jobs must be at least 1"),
], ids=["seeds-0", "max-iter-0", "jobs-0", "jobs-negative"])
def test_bench_rejects_counts_below_one(tmp_path, capsys, flag, value, message):
    # bench checks --tol and --max-iter as solve does
    out = tmp_path / "bench"
    code = cli.main(["bench", "--solvers", "dce", "--n-values", "10", flag, value,
                     "--out", str(out)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
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
    args = cli.build_parser().parse_args(["bench"])
    assert max(args.n_values) <= 300
    # perfbench's cli workload runs with these defaults
    assert (args.tol, args.max_iter) == (1e-6, 2000)
    assert args.solvers == ("dce", "dce-lbfgs", "fbs", "dca", "drs")


def test_bench_config_invariants(tmp_path, capsys):
    # the flag values bench rejects: solve rejects the same tol and max_iter
    for flags in (["--n-values", "1"], ["--solvers", ""], ["--tol=-1"], ["--tol", "nan"],
                  ["--tol", "inf"]):
        code = cli.main(["bench", "--solvers", "dce", "--n-values", "10", "--seeds", "1",
                         *flags, "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "b").exists()


def test_bench_runs_at_tol_zero(tmp_path):
    # tol 0 is a valid stopping rule for bench as for solve: each run takes its budget
    out = tmp_path / "b"
    code = cli.main(["bench", "--solvers", "dce,fbs", "--n-values", "6", "--seeds", "1",
                     "--tol", "0", "--max-iter", "5", "--no-timing", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "comparison.csv")
    assert [row[:3] for row in rows[1:]] == [["dce", "6", "5.0"], ["fbs", "6", "5.0"]]


def test_help_documents_output_schemas():
    text = cli.build_parser().format_help()
    assert "Trace CSV columns" in text
    assert "cum_prox_h" in text
    assert "Exit codes" in text
