"""The shared solver driver: traces, call accounting and start-point checks."""

import dataclasses

import numpy as np
import pytest

import dcprox as dp
from dcprox import baselines, cli, lbfgs, three_prox, two_prox
from dcprox.problems import find_synthetic
from dcprox.reports import drive
from dcprox.three_prox import default_config
from oracles import RecordingAtom, recording, run3_via_lifted

N = 12


def spca_runs(record_trace=True):
    """Solver name -> (runner taking a start point, the default start).

    A runner returns the report and the iterates its solver proxed g at
    (L-BFGS: its linesearch trials as well), recorded as in ``oracles``.
    """
    spca, inst = dp.make_spca(N, seed=1)
    spca3, inst3 = dp.make_spca3(N, seed=1)
    gamma = 0.9 / spca.lam_max
    cfg = dp.TwoProxConfig(gamma=gamma, tol=1e-8, max_iter=300,
                           record_trace=record_trace)
    cfg3 = default_config(tol=1e-6, max_iter=300, record_trace=record_trace)
    drs_gamma = 0.45 / spca.lam_max

    def recorded(solve, instance):
        def runner(s):
            wrapped, iterates = recording(instance)
            return solve(wrapped, s), iterates()
        return runner

    return {
        "run": (recorded(lambda i, s: dp.run(i, cfg, s), inst), spca.s0),
        "run_lbfgs": (recorded(lambda i, s: dp.run_lbfgs(i, cfg, s), inst), spca.s0),
        # run_diag on the lifted form of the three-term instance
        "run_diag": (lambda s: run3_via_lifted(inst3, cfg3, s, spca3.s0), spca3.s0),
        "run3": (recorded(lambda i, s: dp.run3(i, cfg3, s, spca3.s0), inst3), spca3.s0),
        "fbs": (recorded(lambda i, s: dp.fbs_run(i, gamma, 1e-8, 300, s), inst), spca.s0),
        "dca": (recorded(lambda i, s: dp.dca_run(i, gamma, 1e-8, 300, s), inst), spca.s0),
        "drs": (recorded(lambda i, s: dp.drs_run(i, drs_gamma, 1e-8, 300, s), inst),
                spca.s0),
    }


@pytest.mark.parametrize("name", ["run", "run_lbfgs", "run_diag", "run3"])
def test_unrecorded_trace_keeps_the_last_point_only(name):
    # run, run_diag and run3 take 300 iterations, past several chunks of
    # batched trace values; the iterates must not notice the trace
    fn, s0 = spca_runs(record_trace=True)[name]
    recorded, recorded_iterates = fn(s0)
    fn, s0 = spca_runs(record_trace=False)[name]
    plain, plain_iterates = fn(s0)
    assert len(recorded.trace) == recorded.iterations > 1
    assert len(plain.trace) == 1
    assert (plain.termination, plain.iterations, plain.counts()) == \
        (recorded.termination, recorded.iterations, recorded.counts())
    for key in ("final_s", "final_u", "final_v", "final_t", "final_z"):
        np.testing.assert_array_equal(getattr(plain, key), getattr(recorded, key))
    assert dataclasses.replace(plain.trace[-1], wall_ns=0) == \
        dataclasses.replace(recorded.trace[-1], wall_ns=0)
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
    # three-prox tallies prox_f with prox_g, dca its subproblem solve with
    # prox_g, drs its backward solve with prox_h
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
    f_calls = len(inst.f.log) if solver == "three-prox" else 0
    assert report.counts() == (len(inst.h.log) + tally["backward"],
                               len(inst.g.log) + f_calls + tally["dca"],
                               tally["grad"])
    assert report.counts()[0] > 0


@pytest.mark.parametrize("name", list(spca_runs()))
def test_every_solver_rejects_a_bad_start_point(name):
    fn, s0 = spca_runs()[name]
    for bad in (s0[:-1], np.append(s0, 0.0), np.where(np.arange(N) == 3, np.nan, s0),
                np.full(N, np.inf)):
        with pytest.raises(ValueError, match="start point"):
            fn(bad)


@pytest.mark.parametrize("tol,max_iter", [(-1.0, 10), (1e-6, 0)], ids=["tol", "max_iter"])
@pytest.mark.parametrize("name", ["run", "run_lbfgs", "run_diag", "run3", "fbs_run",
                                  "dca_run", "drs_run"])
def test_every_solver_rejects_a_negative_tol_or_empty_budget(name, tol, max_iter):
    spca, inst = dp.make_spca(N, seed=1)
    spca3, inst3 = dp.make_spca3(N, seed=1)
    gamma = 0.9 / spca.lam_max
    cfg = dp.TwoProxConfig(gamma=gamma, tol=tol, max_iter=max_iter)
    runs = {
        "run": lambda: dp.run(inst, cfg, spca.s0),
        "run_lbfgs": lambda: dp.run_lbfgs(inst, cfg, spca.s0),
        "run_diag": lambda: dp.run_diag(inst, np.full(N, gamma), np.ones(N), spca.s0,
                                        tol=tol, max_iter=max_iter),
        "run3": lambda: dp.run3(inst3, default_config(tol=tol, max_iter=max_iter),
                                spca3.s0, spca3.s0),
        "fbs_run": lambda: dp.fbs_run(inst, gamma, tol, max_iter, spca.s0),
        "dca_run": lambda: dp.dca_run(inst, gamma, tol, max_iter, spca.s0),
        "drs_run": lambda: dp.drs_run(inst, 0.5 * gamma, tol, max_iter, spca.s0),
    }
    with pytest.raises(ValueError, match="tol|max_iter"):
        runs[name]()


def spy_on_trace_points(monkeypatch):
    """List that fills, as each solver runs, with inst.phi at every point the
    driver takes for its trace, evaluated the moment the driver takes it."""
    seen = []

    def spied_drive(solver, inst, starts, first, advance, phi_at, *args, **kwargs):
        def spied(it):
            point = phi_at(it)
            seen.append(inst.phi(point))
            return point
        return drive(solver, inst, starts, first, advance, spied, *args, **kwargs)

    for module in (two_prox, lbfgs, baselines, three_prox):
        monkeypatch.setattr(module, "drive", spied_drive)
    return seen


@pytest.mark.parametrize("solver", cli.SOLVERS)
def test_trace_phi_is_phi_at_each_point(solver, monkeypatch):
    # 140 iterations cross two chunks of batched trace values
    seen = spy_on_trace_points(monkeypatch)
    kind = "spca3" if solver == "three-prox" else "spca"
    payload = (dp.make_spca3 if kind == "spca3" else dp.make_spca)(50, seed=0)
    report, _ = cli._solve_one(solver, kind, payload, 0.0, 140)
    assert report.iterations == len(report.trace) == len(seen) == 140
    for tp, phi in zip(report.trace, seen):
        assert tp.phi == pytest.approx(phi, rel=1e-12, abs=0.0)
    # the final point is evaluated alone, with inst.phi
    assert report.trace[-1].phi == seen[-1]


@pytest.mark.parametrize("name,solver", [
    (synth.name, solver) for synth in dp.synthetic_catalogue()
    for solver in synth.solvers])
def test_trace_phi_is_exact_where_atoms_do_not_batch(name, solver, monkeypatch):
    seen = spy_on_trace_points(monkeypatch)
    report, _ = cli._solve_one(solver, "synthetic", find_synthetic(name), 1e-12, 300)
    assert [tp.phi for tp in report.trace] == seen
