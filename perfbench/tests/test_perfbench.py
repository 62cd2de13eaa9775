"""Tests of the benchmark itself: report, tracing exactness, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

import run as bench_run
import tracing
import workloads
from dcprox import Quadratic, lbfgs, make_spca, problems, two_prox
from dcprox import cli

SMALL = {"spca-n1000-accel": dict(n=30, seeds=3),
         "cli-bench-n300": dict(n=20, seeds=2)}


def small(name, **changes):
    return dataclasses.replace(workloads.WORKLOADS[name], **{**SMALL[name], **changes})


def test_benchmark_json_matches_the_metric_tables():
    spec = bench_run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == workloads.END_TO_END[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    for m in spec["per_layer"]:
        assert m["unit"] == workloads.LAYER[m["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_run_prints_every_metric_with_its_unit(tmp_path, name, trace):
    work = small(name)
    result = workloads.run_workload(work, seed=3, seconds=0, trace=bool(trace),
                                    scratch=str(tmp_path))
    assert result.correct, result.failures
    assert result.failed == 0 and result.attempted > 0
    spec = bench_run.load_spec()
    units = {**{k: u for k, (u, _) in workloads.END_TO_END.items()},
             **workloads.LAYER}
    out = io.StringIO()
    line = bench_run.report(work, 3, trace, result, spec, units, out=out)
    printed = {}
    for row in out.getvalue().splitlines():
        if not row.startswith("#"):
            metric, value, unit = row.split(" ")
            printed[metric] = (float(value), unit)
    expected = workloads.LAYER if trace else {
        k: u for k, (u, _) in workloads.END_TO_END.items()}
    assert {k: u for k, (_, u) in printed.items()} == expected
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(doc["metrics"])
    if not trace:
        assert all(doc["metrics"][m]["value"] > 0 for m in doc["metrics"])
    # a registered time must be measured on every workload, never a fixed 0
    times = [m for m in doc["metrics"] if doc["metrics"][m]["unit"] in ("s", "ms", "us")]
    assert all(doc["metrics"][m]["value"] != 0 for m in times)


def test_proxy_forwards_what_solvers_branch_on():
    tracer = tracing.Tracer(full=True)
    atom = Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
    proxy = tracing.AtomProxy(atom, tracer.spanned("prox.prox_h", atom.prox))
    assert proxy.prox_is_affine is True
    assert proxy.dim == 2
    assert proxy.supports_diag is True
    x = np.array([1.0, -2.0])
    w = proxy.prox(x, 0.5)
    assert np.array_equal(w, atom.prox(x, 0.5))
    assert proxy.value_at_prox(w, x, 0.5) == atom.value_at_prox(w, x, 0.5)
    assert len(tracer) == 1


def test_traced_pass_reproduces_untraced_bit_for_bit():
    work = small("spca-n1000-accel")
    plain = workloads.library_pass(work, 1, tracing.Tracer())
    traced = workloads.library_pass(work, 1, tracing.Tracer(full=True))
    assert plain.keys() == traced.keys()
    assert all(o.final_s is not None for o in traced.outcomes)
    spans = tracing.SpanSet(traced.dumps)
    assert spans.calls("prox.prox_h") > 0 and spans.calls("envelope.phi") > 0
    assert np.all(spans.self_dur >= -1e-9)


def test_patched_names_are_restored():
    names = [(problems, "power_lambda_max"), (two_prox, "env_value_from_pair"),
             (lbfgs, "env_value_from_pair"), (lbfgs, "lbfgs_direction"),
             (lbfgs, "wolfe_linesearch"), (lbfgs.LbfgsMemory, "push"),
             (cli, "make_spca"), (cli, "run_lbfgs"), (cli, "_bench_task"),
             (cli, "ProcessPoolExecutor")]
    before = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer(full=True)
    with tracing.cli_patched(tracer, lambda dump, res: None):
        assert lbfgs.wolfe_linesearch is not before[4]
    assert [getattr(owner, attr) for owner, attr in names] == before


class NanAtom:
    """An atom whose prox returns NaN; everything else is the wrapped atom's."""

    def __init__(self, atom):
        self._atom = atom

    def prox(self, x, gamma):
        return np.full(np.shape(x), np.nan)

    def __getattr__(self, name):
        if name.startswith("__"):  # copy looks these up before _atom is set
            raise AttributeError(name)
        return getattr(self._atom, name)


def test_cli_solves_are_verified_from_outside(tmp_path):
    work = small("cli-bench-n300")
    result = workloads.cli_pass(work, 0, tracing.Tracer(), str(tmp_path))
    assert not any(o.failure for o in result.outcomes)
    assert all(o.final_s is not None and o.gamma > 0 for o in result.outcomes)
    converged = [o for o in result.outcomes if o.solver in workloads.ENVELOPE_SOLVERS
                 and o.termination == "converged"]
    assert converged
    # a wrong final iterate that the task's own files would all repeat
    converged[0].final_s = converged[0].final_s + 1e-3
    workloads.verify_converged(result.outcomes)
    assert converged[0].failure.startswith("fresh residual")
    assert all(not o.failure for o in result.outcomes if o is not converged[0])


def nan_build(n, seed):
    spca, inst = make_spca(n, seed=seed)
    return spca, dataclasses.replace(inst, h=NanAtom(inst.h))


def test_nan_atom_counts_as_failed_without_crashing(tmp_path):
    work = small("spca-n1000-accel", n=10, seeds=2)
    result = workloads.run_workload(work, seed=0, seconds=0, trace=False,
                                    scratch=str(tmp_path), build=nan_build)
    assert not result.correct
    assert result.failed == result.attempted > 0
    assert result.metrics["failed_frac"] == 1.0
    text = " ".join(result.failures)
    # run reaches its budget with a nan residual; run_lbfgs raises
    assert "dce seed 1: non-finite residual" in text
    assert "dce-lbfgs seed 1: raised ValueError" in text


def test_headline_repeats_must_reproduce_the_first_pass(tmp_path):
    builds = []

    def drifting_build(n, seed):
        spca, inst = make_spca(n, seed=seed)
        builds.append(seed)
        if len(builds) == 1:  # the untouched build the headline repeats copy
            spca = dataclasses.replace(spca, s0=spca.s0 + 1e-3)
        return spca, inst

    work = small("spca-n1000-accel", n=10, seeds=1)
    result = workloads.run_workload(work, seed=0, seconds=0, trace=False,
                                    scratch=str(tmp_path), build=drifting_build)
    assert not result.correct
    assert result.failed == workloads.HEADLINE_REPEATS * workloads.MIN_PASSES
    assert "dce-lbfgs seed 0: a headline repeat did not reproduce" in " ".join(
        result.failures)
