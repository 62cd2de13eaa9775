"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured numbers. The sparse-PCA gauntlet (criterion 7) runs
five seeded instances at n=100 shared across criteria 2, 3 and 7.
"""

import dataclasses

import numpy as np
import pytest

import dcprox as dp
from dcprox.checks import check_fbe, check_gradient, evaluate_points
from dcprox.reports import Termination
from dcprox.three_prox import GAMMA_KAPPA, lift
from oracles import (CATALOGUE_ANSWERS, ThreeProxConfig, envelope_of_smooth_pair, fbe_value,
                     negate_smooth, psi_gradient_identity_check, quadratic_smooth, recording,
                     residual_rate_check, run3_psi, run3_via_lifted, run_diag)

RNG_SEED = 987
N_DESK = 100
SEEDS = (0, 1, 2, 3, 4)


def _say(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def gauntlet():
    """Five-seed sparse-PCA runs for every solver at n=100."""
    out = {}
    for seed in SEEDS:
        spca, inst = dp.make_spca(N_DESK, seed=seed)
        gamma = 0.9 / spca.lam_max
        cfg = dp.TwoProxConfig(gamma=gamma, lam=1.0, tol=1e-6, max_iter=1000)
        baseline_cfg = dp.TwoProxConfig(gamma=gamma, tol=1e-6, max_iter=20000)
        out[seed] = {
            "spca": spca,
            "inst": inst,
            "cfg": cfg,
            "dce": dp.run(inst, cfg, spca.s0),
            "dce-lbfgs": dp.run_lbfgs(inst, cfg, spca.s0),
            "fbs": dp.fbs_run(inst, baseline_cfg, spca.s0),
            "dca": dp.dca_run(inst, baseline_cfg, spca.s0),
            "drs": dp.drs_run(inst, dataclasses.replace(baseline_cfg, gamma=0.45 / spca.lam_max),
                              spca.s0),
        }
    return out


@pytest.fixture(scope="module")
def descent_runs(gauntlet):
    """(report, relaxation) of each run whose trace carries the
    guaranteed-decrease certificates; relaxation is the (lam, mu) that a
    plain two-prox run ran with, and None for every other run."""
    # the gauntlet's relaxed and accelerated runs; an accepted L-BFGS step
    # claims the Armijo decrease its linesearch tested
    runs = []
    for cell in gauntlet.values():
        runs.append((cell["dce"], (cell["cfg"].validate(cell["inst"].mu), cell["inst"].mu)))
        runs.append((cell["dce-lbfgs"], None))
    # a long plain run for step volume
    spca, inst = dp.make_spca(N_DESK, seed=0)
    long_cfg = dp.TwoProxConfig(gamma=0.9 / spca.lam_max, tol=1e-9, max_iter=6000)
    runs.append((dp.run(inst, long_cfg, spca.s0), (long_cfg.validate(inst.mu), inst.mu)))
    # catalogue runs, scalar and hypoconvex
    for c in dp.synthetic_catalogue():
        if c.dc is not None:
            cfg = dp.TwoProxConfig(gamma=c.gamma, lam=CATALOGUE_ANSWERS[c.name].lam,
                                   tol=1e-12, max_iter=1500)
            runs.append((dp.run(c.dc, cfg, c.s0), (cfg.lam, c.dc.mu)))
    # diagonal-metric runs on the separable instance
    sep = next(c for c in dp.synthetic_catalogue() if c.name == "separable-2d")
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(4):
        runs.append((run_diag(sep.dc, rng.uniform(0.3, 2.0, 2),
                              rng.uniform(0.2, 1.8, 2),
                              rng.standard_normal(2) * 2,
                              tol=1e-12, max_iter=400), None))
    # three-term runs: plain two-prox runs on the lift, whose modulus is its
    # coupling GAMMA_KAPPA/gamma, and three-prox's L-BFGS runs on it
    three = next(c for c in dp.synthetic_catalogue() if c.name == "three-quad-1d")
    cfg3 = dp.TwoProxConfig(gamma=three.gamma, lam=0.9, tol=1e-11, max_iter=3000)
    runs.append((_lifted_run(three.three, cfg3, three.s0),
                 (cfg3.lam, GAMMA_KAPPA / cfg3.gamma)))
    runs.append((dp.run3(three.three, cfg3, three.s0), None))
    spca3, inst3 = dp.make_spca3(30, seed=0)
    # the command line's stepsize, with the default relaxation on the lift
    cfg_spca3 = dp.TwoProxConfig(gamma=0.5 / spca3.lam_max, tol=1e-9, max_iter=6000)
    mu3 = GAMMA_KAPPA / cfg_spca3.gamma
    runs.append((_lifted_run(inst3, cfg_spca3, spca3.s0), (cfg_spca3.validate(mu3), mu3)))
    runs.append((dp.run3(inst3, cfg_spca3, spca3.s0), None))
    return runs


def _lifted_run(inst, cfg, s0):
    """The relaxed two-prox iteration on ``inst``'s lift, from (s0, 0)."""
    return dp.run(lift(inst, cfg.gamma), cfg,
                  np.concatenate([s0, np.zeros(inst.dim)]))


def test_criterion_1_gradient_exactness():
    rng = np.random.default_rng(RNG_SEED)
    worst_env = 0.0
    cases = [(c.name, c.dc, c.gamma, c.s0) for c in dp.synthetic_catalogue()
             if c.dc is not None]
    spca, inst = dp.make_spca(30, seed=0)
    cases.append(("spca-30", inst, 0.9 / spca.lam_max, spca.s0))
    for name, inst_i, gamma, s0 in cases:
        points = [np.asarray(s0, dtype=float) + rng.standard_normal(inst_i.dim)
                  for _ in range(20)]
        evals = evaluate_points(inst_i, gamma, points)
        worst_env = max(worst_env, check_gradient(inst_i, gamma, evals)[1])
    assert worst_env <= 1e-5, f"envelope gradient fd mismatch {worst_env:.2e}"

    worst_psi = 0.0
    three = next(c for c in dp.synthetic_catalogue() if c.name == "three-quad-1d")
    spca3, inst3 = dp.make_spca3(20, seed=0)
    psi_cases = [(three.three, ThreeProxConfig(), 1),
                 (inst3, ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.45),
                  20)]
    for inst_i, cfg, dim in psi_cases:
        for _ in range(20):
            s = rng.standard_normal(dim)
            t = rng.standard_normal(dim)
            dev = psi_gradient_identity_check(inst_i, cfg, s, t)
            scale = 1.0 + float(np.linalg.norm(np.concatenate([s, t])))
            worst_psi = max(worst_psi, dev / scale)
    assert worst_psi <= 1e-4, f"surrogate gradient fd mismatch {worst_psi:.2e}"
    _say(f"CRITERION 1 PASS: envelope fd error {worst_env:.2e} <= 1e-5, "
         f"surrogate fd error {worst_psi:.2e} <= 1e-4")


def test_criterion_2_descent_inequality(descent_runs):
    steps = 0
    worst = -np.inf
    for rep, _ in descent_runs:
        assert rep.termination is not Termination.NUMERICAL_ERROR, rep.message
        envs = rep.trace.env
        for a, a_decrement, b in zip(envs, rep.trace.decrement, envs[1:]):
            slack = 1e-12 * (1.0 + abs(a))
            worst = max(worst, b - (a - a_decrement + slack))
            steps += 1
    assert steps >= 10_000, f"only {steps} iterations collected"
    assert worst <= 0.0, f"descent violated by {worst:.3e}"
    _say(f"CRITERION 2 PASS: quantified decrease held on {steps} iterations "
         f"(worst margin {worst:.3e})")


def test_criterion_3_residual_summability(descent_runs):
    checked = 0
    for rep, relaxation in descent_runs:
        assert residual_rate_check(rep), rep.solver
        envs = rep.trace.env
        gap = envs[0] - min(envs)
        if relaxation is not None and relaxation[1] == 0.0:
            lam = relaxation[0]
            bound = 2.0 * rep.gamma * gap / (lam * (2.0 - lam))
            total = sum(r ** 2 for r in rep.trace.residual[:-1])
            assert total <= bound * (1.0 + 1e-10) + 1e-12, \
                f"{total} > {bound} on {rep.solver}"
        checked += 1
    _say(f"CRITERION 3 PASS: summability bound held on {checked} completed runs")


def test_criterion_4_dce_fbe_equivalence():
    # each point's deviation from the generic forms, which the instance's
    # own check (dcprox check's FBE line) must measure as the same float
    rng = np.random.default_rng(RNG_SEED + 1)
    cases = []
    for name in ("quad-linear-1d", "abs-quad-1d"):
        c = next(k for k in dp.synthetic_catalogue() if k.name == name)
        lip = c.dc.smooth_h.lipschitz
        gamma = c.gamma if lip == 0 or c.gamma < 1.0 / lip else 0.9 / lip
        cases.append((name, c.dc, gamma))
    spca, inst = dp.make_spca(50, seed=0)
    cases.append(("spca-50", inst, 0.9 / spca.lam_max))
    worst_ratio = 0.0
    for name, inst_i, gamma in cases:
        f, g = negate_smooth(inst_i.smooth_h), inst_i.g
        for _ in range(100):
            s = rng.standard_normal(inst_i.dim)
            env = envelope_of_smooth_pair(f, g, gamma, s)
            u = f.backward(s, gamma)
            dev = abs(env - fbe_value(f, g, gamma, u))
            assert check_fbe(inst_i, gamma, evaluate_points(inst_i, gamma, [s]))[1] == dev
            ratio = dev / (1e-8 * (1.0 + abs(env)))
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 1.0, f"{name}: deviation {dev:.2e} at env {env:.2e}"
    _say(f"CRITERION 4 PASS: reparametrized surrogate matched at 300 points "
         f"(worst {worst_ratio:.2e} of budget)")


def test_criterion_5_lifted_equivalence():
    three = next(c for c in dp.synthetic_catalogue() if c.name == "three-quad-1d")
    cfg = ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.9, mu=0.45, tol=0.0,
                          max_iter=100)
    inst, direct = recording(three.three)
    run3_psi(inst, cfg, three.s0, three.s0)
    _, lifted = run3_via_lifted(three.three, cfg, three.s0, three.s0)
    assert len(direct()) == len(lifted) == 100
    worst = 0.0
    for (s_d, _), x_l in zip(direct(), lifted):
        worst = max(worst, float(np.max(np.abs(s_d - x_l[:1]))))
    assert worst <= 1e-12, f"trace deviation {worst:.2e}"
    _say(f"CRITERION 5 PASS: doubled-space iteration matched the direct "
         f"recursion to {worst:.2e} over 100 iterations")


def test_criterion_6_oracle_optimality():
    lines = []
    for c in dp.synthetic_catalogue():
        listed = CATALOGUE_ANSWERS[c.name]
        target, solvers = listed.expected_limit, listed.solvers
        answers = {}
        if c.dc is not None:
            cfg = dp.TwoProxConfig(gamma=c.gamma, lam=listed.lam, tol=1e-9,
                                   max_iter=20000)
            if "dce" in solvers:
                answers["dce"] = dp.run(c.dc, cfg, c.s0)
            if "dce-lbfgs" in solvers:
                answers["dce-lbfgs"] = dp.run_lbfgs(c.dc, cfg, c.s0)
            lip = c.dc.smooth_h.lipschitz if c.dc.smooth_h else 0.0
            fb_gamma = c.gamma if lip == 0 or c.gamma < 1.0 / lip else 0.9 / lip
            fb_cfg = dp.TwoProxConfig(gamma=fb_gamma, tol=1e-9, max_iter=20000)
            if "fbs" in solvers:
                answers["fbs"] = dp.fbs_run(c.dc, fb_cfg, c.s0)
            if "dca" in solvers:
                answers["dca"] = dp.dca_run(c.dc, fb_cfg, c.s0)
            if "drs" in solvers:
                curv = c.dc.smooth_h.curvature_max if c.dc.smooth_h else None
                dr_gamma = c.gamma
                if curv is not None and curv > 0 and dr_gamma >= 1.0 / curv:
                    dr_gamma = 0.45 / curv
                answers["drs"] = dp.drs_run(c.dc, dataclasses.replace(fb_cfg, gamma=dr_gamma),
                                            c.s0)
        if c.three is not None and "three-prox" in solvers:
            cfg3 = dp.TwoProxConfig(gamma=c.gamma, tol=1e-9, max_iter=20000)
            answers["three-prox"] = dp.run3(c.three, cfg3, c.s0)
        assert answers, c.name
        for solver, rep in answers.items():
            assert rep.converged, f"{c.name}/{solver} did not converge"
            dist = float(np.linalg.norm(rep.final_v - target))
            assert dist <= 1e-4, f"{c.name}/{solver}: off by {dist:.2e}"
        lines.append(f"{c.name}[{','.join(sorted(answers))}]")
    _say("CRITERION 6 PASS: stored stationary points reached on " +
         "; ".join(lines))


def test_criterion_7a_plain_solver_budget(gauntlet):
    # Asserted as stated: the unaccelerated solver must exhaust its
    # 1000-iteration budget on every seed. At n=100 the instance difficulty
    # straddles that budget: draws with a large top spectral gap converge
    # faster for every solver and every start, so such seeds fail here.
    counts = {seed: gauntlet[seed]["dce"].iterations for seed in SEEDS}
    exceeded = {seed: gauntlet[seed]["dce"].termination is Termination.MAX_ITER
                for seed in SEEDS}
    line = ", ".join(f"seed {s}: {counts[s]}{'' if exceeded[s] else ' (converged)'}"
                     for s in SEEDS)
    if all(exceeded.values()):
        _say(f"CRITERION 7a PASS: plain solver exhausted 1000 iterations on "
             f"every seed ({line})")
    else:
        _say(f"CRITERION 7a FAIL: plain solver beat the 1000-iteration budget "
             f"on some seeds ({line})")
    assert all(exceeded.values()), (
        f"plain envelope solver converged within 1000 iterations on seeds "
        f"{[s for s in SEEDS if not exceeded[s]]} ({line}); these draws have "
        f"a large top spectral gap and are fast for every solver and start")


def test_criterion_7b_accelerated_solver_converges(gauntlet):
    its = {}
    for seed in SEEDS:
        rep = gauntlet[seed]["dce-lbfgs"]
        assert rep.converged, f"seed {seed} did not converge"
        assert rep.iterations <= 1000
        its[seed] = rep.iterations
    _say(f"CRITERION 7b PASS: accelerated solver converged on every seed "
         f"({', '.join(f'seed {s}: {n}' for s, n in its.items())})")


def test_criterion_7c_accelerated_solver_competitive(gauntlet):
    means = {}
    for solver in ("dce-lbfgs", "fbs", "dca", "drs"):
        for seed in SEEDS:
            assert gauntlet[seed][solver].converged, (solver, seed)
        means[solver] = float(np.mean([gauntlet[seed][solver].iterations
                                       for seed in SEEDS]))
    accel = means.pop("dce-lbfgs")
    strict = all(accel < m for m in means.values())
    best = min(means.values())
    detail = (f"dce-lbfgs {accel:.1f} vs " +
              ", ".join(f"{k} {v:.1f}" for k, v in sorted(means.items())))
    assert accel <= 2.0 * best, f"not within factor 2 of the best ({detail})"
    _say(f"CRITERION 7c PASS: strict ordering {'holds' if strict else 'fails'}"
         f" and the factor-2 gate holds ({detail})")


def test_criterion_8_convexity_preservation():
    rng = np.random.default_rng(RNG_SEED + 2)
    q = rng.standard_normal((20, 20))
    q = q @ q.T / 20  # convex smooth part
    f = quadratic_smooth(q)
    g = dp.L1Ball(0.3)
    gamma = 0.9 / f.lipschitz
    env = lambda s: envelope_of_smooth_pair(f, g, gamma, s)
    worst = -np.inf
    for _ in range(1000):
        s = rng.standard_normal(20) * 2
        s2 = rng.standard_normal(20) * 2
        worst = max(worst, env(0.5 * (s + s2)) - 0.5 * (env(s) + env(s2)))
    assert worst <= 1e-10, f"midpoint convexity violated by {worst:.2e}"
    _say(f"CRITERION 8 PASS: midpoint convexity held on 1000 pairs "
         f"(worst gap {worst:.2e})")


def test_criterion_9_parameter_gates():
    # two-prox box
    dp.TwoProxConfig(gamma=0.5, lam=1.999).validate(0.0)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=0.5, lam=2.0).validate(0.0)
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=2.0, lam=0.5).validate(0.5)  # gamma*mu = 1
    with pytest.raises(ValueError):
        dp.TwoProxConfig(gamma=1.0, lam=1.0).validate(0.5)  # lam = 2*(1-gamma*mu)
    dp.TwoProxConfig(gamma=1.0, lam=0.999).validate(0.5)
    # three-prox box
    ThreeProxConfig(gamma=0.5, delta=2.0, lam=0.999, mu=0.999).validate()
    for kw in (dict(gamma=1.0, delta=2.0, lam=0.5, mu=0.5),
               dict(gamma=0.5, delta=1.0, lam=0.5, mu=0.5),
               dict(gamma=0.5, delta=2.0, lam=1.0, mu=0.5),
               dict(gamma=0.5, delta=2.0, lam=0.5, mu=1.0)):
        with pytest.raises(ValueError):
            ThreeProxConfig(**kw).validate()
    # diagonal relaxation boundary 2*(I - Gamma M)
    sep = next(c for c in dp.synthetic_catalogue() if c.name == "separable-2d")
    m = np.array([0.25, 0.25])
    with pytest.raises(ValueError):
        run_diag(sep.dc, np.ones(2), np.array([1.5, 1.5]), sep.s0, m_diag=m)
    rep = run_diag(sep.dc, np.ones(2), np.array([1.49, 1.49]), sep.s0,
                   m_diag=m, max_iter=5)
    assert rep.termination is not Termination.NUMERICAL_ERROR
    _say("CRITERION 9 PASS: boundary configurations rejected, interior accepted")
