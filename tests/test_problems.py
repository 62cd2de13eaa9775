import json

import numpy as np
import pytest

import dcprox as dp
from dcprox.problems import find_synthetic, problem_from_json, problem_to_json


def test_spca_shapes_and_invariants():
    spca, inst = dp.make_spca(50, seed=0)
    assert spca.a_matrix.shape == (1000, 50)
    assert spca.sigma.shape == (50, 50)
    np.testing.assert_allclose(spca.sigma, spca.sigma.T)
    assert np.linalg.eigvalsh(spca.sigma).min() >= -1e-8
    assert spca.lam_max > 0
    assert inst.dim == 50 and inst.mu == 0.0
    assert np.linalg.norm(spca.s0) == pytest.approx(1.0)


def test_spca_density_near_ten_percent():
    spca, _ = dp.make_spca(100, seed=0)
    density = spca.a_matrix.nnz / (2000 * 100)
    assert 0.08 <= density <= 0.12


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
    assert dp.power_lambda_max(np.zeros((0, 0))) == 0.0


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


def test_spca_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dp.make_spca(1, seed=0)
    with pytest.raises(ValueError):
        dp.make_spca(10, kappa=-0.5, seed=0)


# ---------------------------------------------------------------------------
# synthetic catalogue

def test_catalogue_names_unique_and_complete():
    names = [c.name for c in dp.synthetic_catalogue()]
    assert len(set(names)) == len(names)
    for expected in ("quad-linear-1d", "abs-quad-1d", "abs-hypo-1d",
                     "separable-2d", "three-quad-1d"):
        assert expected in names


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
        gamma = c.gamma if c.dc.mu == 0 else c.gamma / (1 - c.gamma * c.dc.mu)
        grid = np.linspace(c.window[0], c.window[1], 40001)
        res = np.array([dp.dce_eval(c.dc, gamma, np.array([s])).residual
                        for s in grid])
        for target in c.stationary:
            us = np.array([dp.dce_eval(c.dc, gamma, np.array([s])).u[0]
                           for s in grid[res <= np.min(res) + 1e-4]])
            assert np.min(np.abs(us - target[0])) <= 1e-3, (c.name, target)


def test_catalogue_coercive_minima_match_grid_argmin():
    for c in dp.synthetic_catalogue():
        if not c.coercive or c.phi_star is None:
            continue
        if c.three is not None:
            phi = c.three.phi
        else:
            phi = c.dc.phi
        dim = c.three.dim if c.three is not None else c.dc.dim
        if dim != 1:
            continue
        grid = np.linspace(c.window[0], c.window[1], 400001)
        vals = [phi(np.array([x])) for x in grid]
        i = int(np.argmin(vals))
        assert grid[i] == pytest.approx(c.expected_limit[0], abs=1e-4)
        assert vals[i] == pytest.approx(c.phi_star, abs=1e-8)


def test_catalogue_separable_2d_argmin():
    c = find_synthetic("separable-2d")
    xs = np.linspace(-3, 4, 2001)
    best = min(((x1, x2) for x1 in xs for x2 in xs[::20]),
               key=lambda p: c.dc.phi(np.array(p)))
    assert best[0] == pytest.approx(1.0, abs=5e-3)
    # exact coordinatewise: phi' = (x1 - 1, 2 x2 - 2)
    assert c.dc.phi(c.expected_limit) == pytest.approx(c.phi_star)


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
    kind, (again, inst) = problem_from_json(spca.to_json())
    assert kind == "spca"
    assert again.sigma.tobytes() == spca.sigma.tobytes()
    assert again.kappa == spca.kappa
    assert again.s0.tobytes() == spca.s0.tobytes()


def test_problem_descriptors():
    doc = problem_to_json("synthetic", name="quad-linear-1d")
    kind, synth = problem_from_json(doc)
    assert kind == "synthetic" and synth.name == "quad-linear-1d"
    kind, (spca, inst) = problem_from_json(
        problem_to_json("spca3", n=5, seed=1, kappa=0.2))
    assert kind == "spca3" and spca.kappa == 0.2
    with pytest.raises(ValueError):
        problem_from_json(json.dumps({"kind": "mystery"}))
    with pytest.raises(KeyError):
        problem_from_json(json.dumps({"kind": "synthetic", "name": "nope"}))
