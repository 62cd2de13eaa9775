"""Instance diagnostics: the runtime-checkable consequences of the theory.

Each check returns (ok, measured, budget) so callers can print or assert;
``run_instance_checks`` bundles the standard battery for one DC instance.
"""

import numpy as np

from .prox import _as_vector
from .reports import DESCENT_SLACK
from .two_prox import TwoProxConfig, _sandwich_at, dce_eval, run


def finite_difference_gradient(fun, x, step):
    """Central finite differences of a scalar function, coordinatewise."""
    x = _as_vector(x).astype(float)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return grad


def evaluate_points(inst, gamma, points):
    """The ``dce_eval`` iterates of the sample points at gamma, which the
    checks below take, so that each point is evaluated once at a stepsize."""
    return [dce_eval(inst, gamma, s) for s in points]


def check_gradient(inst, gamma, evals):
    """Envelope gradient vs central differences at the evaluated points.

    Measures ||fd - grad|| / (1 + ||grad||) with the documented step
    1e-5*(1 + ||s||); returns (ok, worst, 1e-5).
    """
    worst = 0.0
    for ev in evals:
        s = ev.s
        step = 1e-5 * (1.0 + float(np.linalg.norm(s)))
        fd = finite_difference_gradient(lambda x: dce_eval(inst, gamma, x).env, s, step)
        err = float(np.linalg.norm(fd - ev.grad)) / (1.0 + float(np.linalg.norm(ev.grad)))
        worst = max(worst, err)
    return worst <= 1e-5, worst, 1e-5


def check_descent(inst, gamma, s0):
    """Run 50 iterations at gamma and the default relaxation and re-verify
    the descent bound."""
    report = run(inst, TwoProxConfig(gamma=gamma, tol=0.0, max_iter=50), s0)
    env, decrement = report.trace.env, report.trace.decrement
    worst = -np.inf
    for a, a_decrement, b in zip(env, decrement, env[1:]):
        slack = DESCENT_SLACK * (1.0 + abs(a))
        worst = max(worst, b - (a - a_decrement + slack))
    ok = (report.termination.value != "numerical_error") and worst <= 0.0
    return ok, worst, 0.0


def check_sandwich(inst, gamma, evals):
    """lower <= env <= upper at each evaluated point; returns the worst violation."""
    worst = 0.0
    for ev in evals:
        lower, upper = _sandwich_at(inst, gamma, ev)
        slack = 1e-10 * (1.0 + abs(ev.env))
        if lower != np.inf:
            worst = max(worst, lower - ev.env - slack)
        if upper != np.inf:
            worst = max(worst, ev.env - upper - slack)
    return worst <= 0.0, worst, 0.0


def check_fbe(inst, gamma, evals):
    """The envelope as the forward-backward envelope (FBE) of -h + g.

    At each evaluated point s, u solves u + gamma*grad h(u) = s, and the raw
    pair's envelope g_env(s) - [h(u) + ||u - s||^2/(2*gamma)] must equal
    -h(u) - (gamma/2)*||grad h(u)||^2 + g_env(u + gamma*grad h(u)), g_env
    the Moreau envelope of g. The points' envelope values set the budget's
    scale. Needs ``inst.smooth_h``; the identity holds at every gamma
    where prox_h exists.
    """
    h, g = inst.smooth_h, inst.g

    def g_env(x):
        return g.envelope_at_prox(g.prox(x, gamma), x, gamma)

    worst = 0.0
    for ev in evals:
        s = ev.s
        u = h.backward(s, -gamma)
        d = u - s
        h_u = h.value(u)
        env = g_env(s) - (h_u + 0.5 * float(d.dot(d)) / gamma)
        grad = h.grad(u)
        fbe = -h_u - 0.5 * gamma * float(grad.dot(grad)) + g_env(u + gamma * grad)
        worst = max(worst, abs(env - fbe))
    scale = 1.0 + max(abs(ev.env) for ev in evals)
    return worst <= 1e-8 * scale, worst, 1e-8 * scale


def run_instance_checks(inst, gamma, s0, rng):
    """The standard battery; returns a list of (name, ok, measured, budget).

    Each of the 20 sample points is evaluated once, at gamma, and every
    line checks the envelope the solvers descend, the raw pair's at
    (s, gamma), hypoconvex pairs included.
    """
    s0 = _as_vector(s0)
    points = [s0 + rng.standard_normal(inst.dim) for _ in range(20)]
    evals = evaluate_points(inst, gamma, points)
    results = []
    ok, worst, budget = check_gradient(inst, gamma, evals)
    results.append(("gradient-fd", ok, worst, budget))
    ok, worst, budget = check_descent(inst, gamma, s0)
    results.append(("descent-50-iters", ok, worst, budget))
    ok, worst, budget = check_sandwich(inst, gamma, evals)
    results.append(("sandwich-bounds", ok, worst, budget))
    if inst.smooth_h is not None:
        ok, worst, budget = check_fbe(inst, gamma, evals)
        results.append(("dce-fbe-equivalence", ok, worst, budget))
    return results
