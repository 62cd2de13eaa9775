import json
import tracemalloc
import weakref

import numpy as np
import pytest

import dcprox as dp
from dcprox import cli
from dcprox.problems import (
    _draw_a,
    _generate_spca_data,
    _gram_by_blocks,
    _rng_for,
    find_synthetic,
    problem_from_json,
)
from oracles import CATALOGUE_ANSWERS, assemble_a, reference_spca_data, spca_build_with_a


def test_spca_shapes_and_invariants():
    # A is held as 20 row-block pieces of 16-bit local rows and float64 values
    a, _, _, dtypes = spca_build_with_a(50, seed=0)
    assert a.shape == (1000, 50)
    assert dtypes == [(np.uint16, np.float64)] * 20
    spca, inst = dp.make_spca(50, seed=0)
    assert spca.sigma.shape == (50, 50)
    np.testing.assert_allclose(spca.sigma, spca.sigma.T)
    assert np.linalg.eigvalsh(spca.sigma).min() >= -1e-8
    assert spca.lam_max > 0
    assert inst.dim == 50 and inst.mu == 0.0
    assert np.linalg.norm(spca.s0) == pytest.approx(1.0)


def test_spca_density_near_ten_percent():
    a = spca_build_with_a(100, seed=0)[0]
    density = a.nnz / (2000 * 100)
    assert 0.08 <= density <= 0.12


@pytest.mark.parametrize("n", [2, 7, 130, 131])
def test_spca_sigma_against_dense_oracle(n):
    # Sigma is built from 20 row blocks of n rows, each product added in
    # place into Sigma's buffer; a dropped or repeated block, or a SYRK
    # result that did not land in the Sigma returned, shows here
    a, sigma, _, _ = spca_build_with_a(n, seed=1)
    dense = a.toarray()
    oracle = dense.T @ dense
    assert np.abs(sigma - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert np.array_equal(sigma, sigma.T)


@pytest.mark.parametrize("seed", [0, 3])
def test_spca_random_stream_is_pinned(seed):
    # replay the documented draw order: per column a row mask, then its
    # values; then the start vector
    n = 50
    m = 20 * n
    rng = _rng_for(n, seed)
    a, _, s0, _ = spca_build_with_a(n, seed)
    for j in range(n):
        idx = np.nonzero(rng.random(m) < 0.1)[0]
        vals = rng.standard_normal(idx.shape[0])
        col = a[:, j]
        assert np.array_equal(col.indices, idx)
        assert col.data.tobytes() == vals.tobytes()
    expected = rng.standard_normal(n)
    expected /= np.linalg.norm(expected)
    assert s0.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 7, 130, 131, 300])
def test_spca_build_matches_reference_bytes(n, seed):
    # compared in-process: Sigma's bytes depend on the BLAS thread count
    # (they differ between 1 and 2 threads at n = 131 and 300), so a stored
    # digest would pin one setting only. Seven of these builds (n = 130
    # seeds 0 and 2, n = 131 seeds 1 and 2, n = 300 seeds 0 to 2) draw more
    # nonzeros in some stage than expected, so the staging buffer grows
    a, sigma, s0, _ = spca_build_with_a(n, seed)
    ref_a, ref_sigma, ref_s0 = reference_spca_data(n, seed)
    assert a.format == "csc" and a.shape == ref_a.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(a, name), getattr(ref_a, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert sigma.tobytes() == ref_sigma.tobytes()
    assert s0.tobytes() == ref_s0.tobytes()


def test_spca_build_peak_memory_near_its_floor():
    # floor: A's pieces (8-byte values, 2-byte local rows), one dense row
    # block of n x n and Sigma, into which each block's product is added in
    # place; an n x n product temporary or copy of Sigma, 4-byte rows or an
    # index array per nonzero held alongside would add 8 * n * n, 2 or 8
    # bytes per nonzero
    n = 400
    nnz = spca_build_with_a(n, 0)[0].nnz
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _generate_spca_data(n, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    floor = 10 * nnz + 8 * n * n + 8 * n * n
    assert peak <= 1.1 * floor, (peak, floor)


@pytest.mark.parametrize("block_rows, index", [(17500, np.uint16), (70000, np.uint32)])
def test_draw_keeps_exact_local_rows_past_16_bits(block_rows, index):
    # 8 blocks of 17,500 rows put global rows past 65,535, which the 16-bit
    # staging wraps; blocks of 70,000 rows need 32-bit local rows. Two
    # columns keep the draw small; the stream is replayed as above
    n, m = 2, 8 * block_rows
    edges = list(range(0, m + 1, block_rows))
    pieces = _draw_a(_rng_for(n, 5), m, n, edges)
    assert all(rows.dtype == index for _, rows, _ in pieces)
    a, rng = assemble_a(pieces, edges), _rng_for(n, 5)
    for j in range(n):
        idx = np.nonzero(rng.random(m) < 0.1)[0]
        col = a[:, j]
        assert np.array_equal(col.indices, idx)
        assert col.data.tobytes() == rng.standard_normal(idx.size).tobytes()


class EveryEntry:
    """A stand-in generator whose mask keeps every row (all uniforms 0) and
    whose normals count up, so the draws overrun every initial size."""

    def __init__(self):
        self.drawn = 0

    def random(self, out):
        out.fill(0.0)

    def standard_normal(self, out):
        out[:] = np.arange(self.drawn, self.drawn + out.size)
        self.drawn += out.size


def test_draw_grows_the_staging_buffer_and_the_pieces():
    # 9 columns of 40 rows: the staging buffer starts at 64 * 40 / 10
    # entries and each piece at 5 * (9 + 64) / 10; they get 360 and 45
    n, m = 9, 40
    edges = [*range(0, m, -(-m // 8)), m]
    a = assemble_a(_draw_a(EveryEntry(), m, n, edges), edges)
    assert np.array_equal(a.toarray(), np.arange(m * n).reshape(n, m).T)


def test_gram_consumes_the_pieces_and_returns_a_symmetric_sigma():
    # each piece is dropped from the list as its block is filled, so none is
    # alive when the Gram returns; the mirrored Sigma is symmetric bit for bit
    n, m = 131, 20 * 131
    edges = range(0, m + 1, n)  # the build's 20 blocks of n rows
    pieces = _draw_a(_rng_for(n, 2), m, n, edges)
    alive = [weakref.ref(array) for piece in pieces for array in piece]
    sigma = _gram_by_blocks(pieces, edges)
    assert pieces == [None] * 20
    assert [ref() for ref in alive] == [None] * 60
    assert np.array_equal(sigma, sigma.T) and sigma.flags.c_contiguous


def test_spca_lambda_max_against_dense_oracle():
    for seed in (0, 1, 2):
        spca, _ = dp.make_spca(60, seed=seed)
        dense = float(np.linalg.eigvalsh(spca.sigma).max())
        assert spca.lam_max == pytest.approx(dense, rel=1e-12)


def test_spca_deterministic_regeneration():
    a, _ = dp.make_spca(40, seed=3)
    b, _ = dp.make_spca(40, seed=3)
    assert a.sigma.tobytes() == b.sigma.tobytes()
    assert a.s0.tobytes() == b.s0.tobytes()
    assert a.kappa == b.kappa and a.lam_max == b.lam_max
    c, _ = dp.make_spca(40, seed=4)
    assert a.sigma.tobytes() != c.sigma.tobytes()


def test_kappa_default_examples():
    assert dp.kappa_default(np.eye(3)) == pytest.approx(0.1)
    assert dp.kappa_default(np.diag([4.0, 1.0])) == pytest.approx(0.2)
    spca, _ = dp.make_spca(20, seed=0)
    assert dp.kappa_default(spca.sigma) > 0


def test_power_iteration_on_known_spectrum():
    sigma = np.diag([5.0, 2.0, 1.0])
    assert dp.power_lambda_max(sigma) == pytest.approx(5.0, rel=1e-9)
    assert dp.power_lambda_max(np.zeros((3, 3))) == 0.0


def test_lambda_max_on_near_degenerate_rotated_spectrum():
    # a top gap of 1e-4 stalls a power iteration well short of the true value
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    sigma = q @ np.diag([1.0, 1.0 - 1e-4, 0.5, 0.2, 0.1]) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    assert dp.power_lambda_max(sigma) == pytest.approx(1.0, rel=1e-12)


def test_spca_kappa_zero_recovers_leading_eigenvector():
    spca, inst = dp.make_spca(2, kappa=0.0, seed=0)
    cfg = dp.TwoProxConfig(gamma=0.9 / spca.lam_max, tol=1e-12, max_iter=20000)
    rep = dp.run_lbfgs(inst, cfg, spca.s0)
    assert rep.converged
    w, v = np.linalg.eigh(spca.sigma)
    top = v[:, -1]
    cos = abs(float(top @ rep.final_v)) / np.linalg.norm(rep.final_v)
    assert cos >= 1.0 - 1e-6


def test_spca_huge_kappa_terminates_at_zero():
    spca, _ = dp.make_spca(10, seed=1)
    big = 10.0 * np.abs(spca.sigma).sum(axis=1).max()
    _, inst = dp.make_spca(10, kappa=big, seed=1)
    cfg = dp.TwoProxConfig(gamma=0.9 / spca.lam_max, tol=1e-10, max_iter=5000)
    rep = dp.run(inst, cfg, spca.s0)
    assert rep.converged
    np.testing.assert_allclose(rep.final_u, 0.0, atol=1e-8)
    # subgradient inclusion at zero: 0 is inside kappa*[-1,1]^n - Sigma*0
    assert np.all(np.abs(spca.sigma @ np.zeros(10)) <= big)


def test_make_spca3_exercises_all_three_parts():
    spca, inst = dp.make_spca3(8, seed=0)
    assert isinstance(inst, dp.ThreeTermInstance)
    assert isinstance(inst.f, dp.Quadratic)
    assert isinstance(inst.g, dp.L1Ball)
    assert isinstance(inst.h, dp.Zero)
    assert inst.dim == 8


def _solved(solver, payload):
    """What must match bit for bit between two solves of one (n, seed)."""
    kind = "spca3" if solver == "three-prox" else "spca"
    report, _ = cli._solve_one(solver, kind, payload, 1e-6, 300)
    trace = report.trace
    return (report.termination, report.iterations, report.final_s.tobytes(), report.phi,
            trace.env, trace.residual, trace.decrement,
            trace.prox_h, trace.prox_g, trace.grad_h)


@pytest.mark.parametrize("first,second", [("three-prox", "dce"), ("dce", "three-prox")])
def test_splits_built_on_one_sigma_match_fresh_builds(first, second):
    builds = {"three-prox": dp.make_spca3, "dce": dp.make_spca}
    held = builds[first](12, seed=1)
    solved_first = _solved(first, held)
    spca, inst = builds[second](12, seed=1, spca=held[0])
    assert spca is held[0]
    atom = inst.f if second == "three-prox" else inst.h
    assert atom.sigma is spca.sigma  # Sigma is shared, not copied
    assert atom is not (held[1].f if first == "three-prox" else held[1].h)
    assert _solved(second, (spca, inst)) == _solved(second, builds[second](12, seed=1))
    assert _solved(first, held) == solved_first


def test_splits_reject_the_instance_of_another_problem():
    spca = dp.make_spca(12, seed=1)[0]
    for build in (dp.make_spca, dp.make_spca3):
        assert build(12, kappa=spca.kappa, seed=1, spca=spca)[0] is spca
        for n, kappa, seed in ((13, None, 1), (12, None, 2), (12, 0.5, 1)):
            with pytest.raises(ValueError, match="spca= holds"):
                build(n, kappa=kappa, seed=seed, spca=spca)


def test_spca_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dp.make_spca(1, seed=0)
    with pytest.raises(ValueError):
        dp.make_spca(10, kappa=-0.5, seed=0)
    with pytest.raises(ValueError):
        dp.make_spca3(10, kappa=-0.5, seed=0)


# ---------------------------------------------------------------------------
# synthetic catalogue

def test_catalogue_names_unique_and_complete():
    names = [c.name for c in dp.synthetic_catalogue()]
    assert len(set(names)) == len(names)
    for expected in ("quad-linear-1d", "abs-quad-1d", "abs-hypo-1d",
                     "separable-2d", "three-quad-1d"):
        assert expected in names


def test_catalogue_answers_match_what_solve_accepts(tmp_path, capsys):
    # the answers table's solver lists are the pairs `dcprox solve` runs
    # (exit 0 or 2) and no others (exit 1)
    names = [c.name for c in dp.synthetic_catalogue()]
    assert list(CATALOGUE_ANSWERS) == names
    for name in names:
        doc = json.dumps({"kind": "synthetic", "name": name})
        for solver in cli.SOLVERS:
            code = cli.main(["solve", doc, "--solver", solver, "--max-iter", "1",
                             "--no-timing", "--out", str(tmp_path / f"{name}-{solver}")])
            listed = solver in CATALOGUE_ANSWERS[name].solvers
            assert (code in (0, 2)) if listed else (code == 1), (name, solver, code)


def residual_on_grid(inst, gamma, window, n=200_001):
    grid = np.linspace(window[0], window[1], n)
    res = np.array([dp.dce_eval(inst, gamma, np.array([s])).residual for s in
                    np.atleast_1d(grid)])
    return grid, res


def test_catalogue_stationary_points_verified_by_grid_oracle():
    # every stored stationary point must appear as a near-zero of the
    # residual map s -> ||prox_h(s) - prox_g(s)|| for some s in the window
    for c in dp.synthetic_catalogue():
        if c.dc is None or c.dc.dim != 1:
            continue
        gamma, answers = c.gamma, CATALOGUE_ANSWERS[c.name]
        grid = np.linspace(answers.window[0], answers.window[1], 40001)
        res = np.array([dp.dce_eval(c.dc, gamma, np.array([s])).residual
                        for s in grid])
        for target in answers.stationary:
            us = np.array([dp.dce_eval(c.dc, gamma, np.array([s])).u[0]
                           for s in grid[res <= np.min(res) + 1e-4]])
            assert np.min(np.abs(us - target[0])) <= 1e-3, (c.name, target)


def test_catalogue_coercive_minima_match_grid_argmin():
    for c in dp.synthetic_catalogue():
        answers = CATALOGUE_ANSWERS[c.name]
        if not answers.coercive or answers.phi_star is None:
            continue
        if c.three is not None:
            phi = c.three.phi
        else:
            phi = c.dc.phi
        dim = c.three.dim if c.three is not None else c.dc.dim
        if dim != 1:
            continue
        grid = np.linspace(answers.window[0], answers.window[1], 400001)
        vals = [phi(np.array([x])) for x in grid]
        i = int(np.argmin(vals))
        assert grid[i] == pytest.approx(answers.expected_limit[0], abs=1e-4)
        assert vals[i] == pytest.approx(answers.phi_star, abs=1e-8)


def test_catalogue_separable_2d_argmin():
    c, answers = find_synthetic("separable-2d"), CATALOGUE_ANSWERS["separable-2d"]
    xs = np.linspace(-3, 4, 2001)
    best = min(((x1, x2) for x1 in xs for x2 in xs[::20]),
               key=lambda p: c.dc.phi(np.array(p)))
    assert best[0] == pytest.approx(1.0, abs=5e-3)
    # exact coordinatewise: phi' = (x1 - 1, 2 x2 - 2)
    assert c.dc.phi(answers.expected_limit) == pytest.approx(answers.phi_star)


def test_catalogue_atoms_pass_firm_nonexpansiveness(rng):
    for c in dp.synthetic_catalogue():
        parts = []
        if c.dc is not None:
            parts += [c.dc.g, c.dc.h]
        if c.three is not None:
            parts += [c.three.f, c.three.g, c.three.h]
        for atom in parts:
            dim = atom.dim or 1
            for _ in range(30):
                gamma = float(rng.uniform(0.1, 1.5))
                s, s2 = rng.standard_normal(dim), rng.standard_normal(dim)
                try:
                    x, x2 = atom.prox(s, gamma), atom.prox(s2, gamma)
                except ValueError:
                    continue  # hypoconvex atom outside its stepsize range
                inner = float((x - x2) @ (s - s2))
                lo = float((x - x2) @ (x - x2))
                hi = float((s - s2) @ (s - s2))
                if isinstance(atom, dp.ScaledSquare) and atom.curvature < 0:
                    continue  # nonexpansiveness only claimed for convex atoms
                assert lo <= inner + 1e-9 and inner <= hi + 1e-9


# ---------------------------------------------------------------------------
# JSON descriptors

def test_spca_json_roundtrip():
    spca, _ = dp.make_spca(25, seed=7)
    kind, (again, inst) = problem_from_json(json.dumps(
        {"kind": "spca", "n": spca.n, "seed": spca.seed, "kappa": spca.kappa}))
    assert kind == "spca"
    assert again.sigma.tobytes() == spca.sigma.tobytes()
    assert again.kappa == spca.kappa
    assert again.s0.tobytes() == spca.s0.tobytes()


def test_problem_descriptors():
    doc = json.dumps({"kind": "synthetic", "name": "quad-linear-1d"})
    kind, synth = problem_from_json(doc)
    assert kind == "synthetic" and synth.name == "quad-linear-1d"
    kind, (spca, inst) = problem_from_json(
        json.dumps({"kind": "spca3", "n": 5, "seed": 1, "kappa": 0.2}))
    assert kind == "spca3" and spca.kappa == 0.2
    with pytest.raises(ValueError):
        problem_from_json(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValueError, match='"name"'):
        problem_from_json(json.dumps({"kind": "synthetic", "name": "nope"}))
