"""The shared solver driver: traces, call accounting and start-point checks."""

import dataclasses
import re

import numpy as np
import pytest

import dcprox as dp
from dcprox import baselines, cli, lbfgs, reports, two_prox
from dcprox.problems import find_synthetic
from dcprox.reports import drive
from dcprox.three_prox import lift
from oracles import (CATALOGUE_ANSWERS, RecordingAtom, ThreeProxConfig, phi_upper_bound,
                     recording, residual_rate_check, run3_via_lifted, run_diag)

N = 12

# the solver functions by the names the tests give them; each takes (inst, cfg, s0)
SOLVES = {"run": dp.run, "run_lbfgs": dp.run_lbfgs, "run3": dp.run3,
          "fbs": dp.fbs_run, "dca": dp.dca_run, "drs": dp.drs_run}


def spca_setups(**settings):
    """Solver name of ``SOLVES`` -> (instance, config, start) on the spca
    problem at n = N, seed 1, and for run3 on its spca3 split.

    Every config is one config with ``settings`` at the solver's stepsize:
    0.9/lam_max, half that for drs, and 0.5/lam_max for run3.
    """
    spca, inst = dp.make_spca(N, seed=1)
    spca3, inst3 = dp.make_spca3(N, seed=1)
    cfg = dp.TwoProxConfig(gamma=0.9 / spca.lam_max, **settings)
    setups = {name: (inst, cfg, spca.s0) for name in SOLVES}
    setups["drs"] = (inst, dataclasses.replace(cfg, gamma=0.5 * cfg.gamma), spca.s0)
    setups["run3"] = (inst3, dataclasses.replace(cfg, gamma=0.5 / spca3.lam_max), spca3.s0)
    return setups


def spca_runs(record_trace=True):
    """Solver name -> (runner taking a start point, the default start).

    A runner returns the report and the iterates its solver proxed g at
    (L-BFGS: its linesearch trials as well), recorded as in ``oracles``.
    """
    setups = spca_setups(tol=1e-8, max_iter=300, record_trace=record_trace)
    inst3, cfg3, s3 = setups["run3"]
    setups["run3"] = (inst3, dataclasses.replace(cfg3, tol=1e-6), s3)

    def recorded(name):
        inst, cfg, s0 = setups[name]

        def runner(s):
            wrapped, iterates = recording(inst)
            return SOLVES[name](wrapped, cfg, s), iterates()
        return runner, s0

    runs = {name: recorded(name) for name in SOLVES}
    # run_diag on the lifted form of the three-term instance
    cfg_psi = ThreeProxConfig(tol=1e-6, max_iter=300)
    runs["run_diag"] = (lambda s: run3_via_lifted(inst3, cfg_psi, s, s3, record_trace), s3)
    return runs


@pytest.mark.parametrize("name", ["run", "run_lbfgs", "run_diag", "run3", "fbs", "dca",
                                  "drs"])
def test_unrecorded_trace_keeps_the_last_point_only(name):
    # run, run_diag and run3 take 300 iterations, past several chunks of
    # batched trace values; the iterates must not notice the trace. The
    # baselines' last point takes phi for its env with the trace off too,
    # and every run's final phi is evaluated alone
    fn, s0 = spca_runs(record_trace=True)[name]
    recorded, recorded_iterates = fn(s0)
    fn, s0 = spca_runs(record_trace=False)[name]
    plain, plain_iterates = fn(s0)
    assert len(recorded.trace) == recorded.iterations > 1
    assert len(plain.trace) == 1
    assert (plain.termination, plain.iterations, plain.counts()) == \
        (recorded.termination, recorded.iterations, recorded.counts())
    assert plain.phi == recorded.phi
    for key in ("final_s", "final_u", "final_v"):
        np.testing.assert_array_equal(getattr(plain, key), getattr(recorded, key))
    for name in reports.Trace.__slots__:
        if name != "wall_ns":
            assert getattr(plain.trace, name)[-1] == getattr(recorded.trace, name)[-1], name
    assert len(plain_iterates) == len(recorded_iterates) >= recorded.iterations
    for a, b in zip(plain_iterates, recorded_iterates):
        np.testing.assert_array_equal(a, b)


def counted(fn, tally, key):
    def wrapper(*args):
        tally[key] += 1
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("solver", ["dce", "dce-lbfgs", "fbs", "dca", "drs",
                                    "three-prox"])
def test_counts_equal_the_oracle_calls_made(solver):
    # three-prox's prox_g is one prox of its lift's G, which proxes g and f
    # once each; dca tallies its subproblem solve with prox_g, drs its
    # backward solve with prox_h
    tally = {"grad": 0, "backward": 0, "dca": 0}
    if solver == "three-prox":
        spca, inst = dp.make_spca3(N, seed=2)
        inst = dataclasses.replace(inst, f=RecordingAtom(inst.f), g=RecordingAtom(inst.g),
                                   h=RecordingAtom(inst.h))
    else:
        spca, inst = dp.make_spca(N, seed=2)
        smooth = dataclasses.replace(
            inst.smooth_h, grad=counted(inst.smooth_h.grad, tally, "grad"),
            backward=counted(inst.smooth_h.backward, tally, "backward"))
        inst = dataclasses.replace(inst, g=RecordingAtom(inst.g), h=RecordingAtom(inst.h),
                                   smooth_h=smooth,
                                   dca_step=counted(inst.dca_step, tally, "dca"))
    report, _ = cli._solve_one(solver, "spca3" if solver == "three-prox" else "spca",
                               (spca, inst), 1e-8, 400)
    if solver == "three-prox":
        assert len(inst.f.log) == len(inst.g.log)
    assert report.counts() == (len(inst.h.log) + tally["backward"],
                               len(inst.g.log) + tally["dca"], tally["grad"])
    # fbs and dca take the criterion's prox_h image from their iterate
    assert (report.counts()[0] > 0) == (solver not in ("fbs", "dca"))


@pytest.mark.parametrize("name", list(spca_runs()))
def test_every_solver_rejects_a_bad_start_point(name):
    fn, s0 = spca_runs()[name]
    # a start of the wrong length is reported in the solver's own dimension;
    # the lifted oracle's is the lifted one
    dim = 2 * N if name == "run_diag" else N
    for bad in (s0[:-1], np.append(s0, 0.0)):
        with pytest.raises(ValueError, match=f"start point has shape .*, instance dim {dim}$"):
            fn(bad)
    for bad in (np.where(np.arange(N) == 3, np.nan, s0), np.full(N, np.inf)):
        with pytest.raises(ValueError, match="start point must be finite"):
            fn(bad)


@pytest.mark.parametrize("tol,max_iter",
                         [(-1.0, 10), (1e-6, 0), (float("nan"), 10), (float("inf"), 10)],
                         ids=["tol", "max_iter", "tol_nan", "tol_inf"])
@pytest.mark.parametrize("name", ["run", "run_lbfgs", "run_diag", "run3", "fbs_run",
                                  "dca_run", "drs_run"])
def test_every_solver_rejects_a_negative_tol_or_empty_budget(name, tol, max_iter):
    setups = spca_setups(tol=tol, max_iter=max_iter)
    with pytest.raises(ValueError, match="tol|max_iter"):
        if name == "run_diag":
            inst, cfg, s0 = setups["run"]
            run_diag(inst, np.full(N, cfg.gamma), np.ones(N), s0, tol=tol, max_iter=max_iter)
        else:
            # the baselines go by their function names here
            name = name.removesuffix("_run")
            inst, cfg, s0 = setups[name]
            SOLVES[name](inst, cfg, s0)


@pytest.mark.parametrize("gamma,message", [
    (np.full(N, 0.01), "scalar stepsize expected"),
    (0.0, "gamma must be positive and finite, got 0.0"),
    (-1.0, "gamma must be positive and finite, got -1.0"),
    (float("nan"), "gamma must be positive and finite, got nan"),
    (float("inf"), "gamma must be positive and finite, got inf"),
], ids=["vector", "zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("name", [*SOLVES, "dce_eval"])
def test_every_solver_words_a_bad_stepsize_alike(name, gamma, message):
    # one validator checks every stepsize, the envelope evaluation's too
    setups = spca_setups()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if name == "dce_eval":
            inst, _, s0 = setups["run"]
            dp.dce_eval(inst, gamma, s0)
        else:
            inst, cfg, s0 = setups[name]
            SOLVES[name](inst, dataclasses.replace(cfg, gamma=gamma), s0)


@pytest.mark.parametrize("name", SOLVES)
def test_every_solver_rejects_a_vector_relaxation(name):
    # lam is tested for a scalar as gamma is, not left to numpy's
    # "truth value of an array is ambiguous"
    synth = find_synthetic("three-quad-1d" if name == "run3" else "separable-2d")
    inst = synth.three if name == "run3" else synth.dc
    cfg = dp.TwoProxConfig(gamma=synth.gamma, lam=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="^scalar relaxation expected$"):
        SOLVES[name](inst, cfg, synth.s0)


ENVELOPE_SOLVERS = ("dce", "dce-lbfgs", "three-prox")


class CountingInstance:
    """Forwards an instance and counts the driver's calls of ``phi`` and ``phis``."""

    def __init__(self, inst, calls):
        self._inst = inst
        self._calls = calls

    def phi(self, x):
        self._calls["phi"] += 1
        return self._inst.phi(x)

    def phis(self, rows):
        self._calls["phis"] += 1
        return self._inst.phis(rows)

    def __getattr__(self, name):
        return getattr(self._inst, name)


def spy_on_drive(monkeypatch):
    """(seen, calls), filling as each solver runs: seen gets inst.phi at
    every point the driver asks ``phi_at`` for, evaluated the moment it
    asks; calls counts the driver's calls of inst.phi and inst.phis."""
    seen = []
    calls = {"phi": 0, "phis": 0}

    def spied_drive(solver, inst, s0, first, advance, phi_at, *args, **kwargs):
        def spied(it):
            point = phi_at(it)
            seen.append(inst.phi(point))
            return point
        return drive(solver, CountingInstance(inst, calls), s0, first, advance, spied,
                     *args, **kwargs)

    for module in (two_prox, lbfgs, baselines):
        monkeypatch.setattr(module, "drive", spied_drive)
    return seen, calls


@pytest.mark.parametrize("solver", cli.SOLVERS)
def test_trace_phi_is_phi_at_each_point(solver, monkeypatch):
    # 140 iterations cross two chunks of batched trace values. No trace
    # column holds an envelope method's phi: it is evaluated at the final
    # point alone; the baselines' env column takes it 64 points at a time
    seen, calls = spy_on_drive(monkeypatch)
    kind = "spca3" if solver == "three-prox" else "spca"
    payload = (dp.make_spca3 if kind == "spca3" else dp.make_spca)(50, seed=0)
    report, _ = cli._solve_one(solver, kind, payload, 0.0, 140)
    assert report.iterations == len(report.trace) == 140
    assert report.phi == seen[-1]
    if solver in ENVELOPE_SOLVERS:
        assert len(seen) == 1
        assert calls == {"phi": 1, "phis": 0}
        return
    assert calls == {"phi": 1, "phis": 3}  # 64 + 64 + 11 points
    assert len(seen) == 140
    for traced, phi in zip(report.trace.env, seen):
        assert traced == pytest.approx(phi, rel=1e-12, abs=0.0)
    assert report.trace.env[-1] == seen[-1]


@pytest.mark.parametrize("name,solver", [
    (name, solver) for name, answers in CATALOGUE_ANSWERS.items()
    for solver in answers.solvers])
def test_trace_phi_is_exact_where_atoms_do_not_batch(name, solver, monkeypatch):
    seen, _ = spy_on_drive(monkeypatch)
    report, _ = cli._solve_one(solver, "synthetic", find_synthetic(name), 1e-12, 300)
    assert report.phi == seen[-1]
    if solver in ENVELOPE_SOLVERS:
        assert len(seen) == 1
    else:
        assert report.trace.env == seen


def setup(name, solver):
    """(cli kind, payload, instance, stepsize, start) of ``dcprox solve``
    for ``solver`` on spca n=50 seed 0 (spca3 for three-prox) or on the
    synthetic entry ``name``."""
    three = solver == "three-prox"
    if name == "spca":
        spca, inst = (dp.make_spca3 if three else dp.make_spca)(50, seed=0)
        return ("spca3" if three else "spca", (spca, inst), inst,
                cli.GAMMA_POLICY[solver] / spca.lam_max, spca.s0)
    synth = find_synthetic(name)
    return ("synthetic", synth, synth.three if three else synth.dc, synth.gamma,
            synth.s0)


@pytest.mark.parametrize("name", ["spca"] + [
    name for name, answers in CATALOGUE_ANSWERS.items() if "dce" in answers.solvers])
def test_env_and_residual_bound_phi_at_every_point(name):
    # the sandwich bound reads an envelope run's phi off two trace columns;
    # point k's v is the k-th prox_g output, recomputed from its logged input
    _, _, inst, gamma, s0 = setup(name, "dce")
    wrapped, iterates = recording(inst)
    report = dp.run(wrapped, dp.TwoProxConfig(gamma=gamma, tol=0.0, max_iter=140), s0)
    trace = report.trace
    assert len(iterates()) == len(trace) == report.iterations
    for s, env, residual in zip(iterates(), trace.env, trace.residual):
        assert inst.phi(inst.g.prox(s, gamma)) <= phi_upper_bound(inst, gamma, env, residual)
    assert report.phi <= phi_upper_bound(inst, gamma, trace.env[-1], trace.residual[-1])


@pytest.mark.parametrize("solver,name", [
    ("dce-lbfgs", "spca"), ("dce-lbfgs", "separable-2d"),
    ("three-prox", "spca"), ("three-prox", "three-quad-1d")])
def test_env_and_residual_bound_phi_at_the_final_point(solver, name):
    kind, payload, inst, gamma, _ = setup(name, solver)
    report, _ = cli._solve_one(solver, kind, payload, 1e-8, 2000)
    # three-prox's env and residual are its lift's, whose modulus is its
    # coupling kappa = GAMMA_KAPPA/gamma
    pair = lift(inst, gamma) if solver == "three-prox" else inst
    assert report.phi <= phi_upper_bound(pair, gamma, report.trace.env[-1],
                                         report.trace.residual[-1])


def test_trace_is_one_list_per_column():
    spca, inst = dp.make_spca(N, seed=1)
    cfg = dp.TwoProxConfig(gamma=0.9 / spca.lam_max, tol=0.0, max_iter=70)
    report = dp.run(inst, cfg, spca.s0)
    trace = report.trace
    assert isinstance(trace, reports.Trace) and len(trace) == 70
    assert all(type(getattr(trace, name)) is list and len(getattr(trace, name)) == 70
               for name in reports.Trace.__slots__)
    assert trace.k == list(range(70))
    assert residual_rate_check(report)
    assert len(dp.RunReport(solver="dce", termination=dp.Termination.MAX_ITER,
                            iterations=0, final_s=spca.s0, final_u=spca.s0,
                            final_v=spca.s0).trace) == 0
