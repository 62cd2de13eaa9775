"""Reference solvers for smooth-h DC problems: FBS, DCA, Douglas-Rachford.

All three need a gradient oracle for h (and DCA additionally a subproblem
solver argmin_x g(x) - <v, x>). Every solver shares the same termination
quantity as the envelope methods, the prox gap ||prox_h(p) - prox_g(p)||
evaluated at a point p in the envelope's argument space; each method uses
the pre-prox point of its own proximal step (the forward point for FBS and
DCA, the reflected point 2u - s for Douglas-Rachford), where the gap
vanishes exactly at the method's fixed points.

Each of those points has the form p = u + gamma*grad h(u) for a u the
iteration already holds, and the resolvent identity prox_h = (I +
gamma*grad h)^-1 gives prox_h(p) = u, wherever prox_h is single-valued
(gamma*mu < 1). So the criterion's h-side costs no prox_h call: FBS and DCA
take u as their current iterate, and Douglas-Rachford as the backward point
it solved for. Call counters include the termination checks, so the
per-iteration cost columns are directly comparable across solvers.
Each solver takes ``(inst, cfg, s0)`` with cfg a ``two_prox.TwoProxConfig``
and validates it, its unused ``lam`` too, after its capability checks and
before its own stepsize gate.
"""

from math import sqrt

from .prox import CapabilityError, _check_finite
from .reports import CallCounter, Iterate, drive


def _require_smooth(inst, solver):
    if inst.smooth_h is None:
        raise CapabilityError(f"{solver} needs a smooth_h oracle on the instance")
    return inst.smooth_h


def _baseline_run(solver, inst, cfg, x0, counter, prox_g, forward, phi_at):
    """Drive ``forward(x) -> (x_next, point, u, reuse_v)`` with the shared residual.

    ``point`` is where the residual is evaluated and ``u`` its prox_h image,
    which the solver holds by the resolvent identity (module docstring);
    ``reuse_v`` is a prox_g output already computed there, if any. The
    residual is ||u - prox_g(point)||. A non-finite point is the ValueError
    that prox_h would raise on it. The objective is traced at ``phi_at(it)``;
    the steps claim no decrease.
    """
    def first(x):
        x_next, point, u, v = forward(x)
        _check_finite(point)
        if v is None:
            v = prox_g(point, cfg.gamma)
        d = u - v
        return Iterate(x, u, v, None, sqrt(d.dot(d)), s_next=x_next)

    def advance(it):
        return first(it.s_next), None

    return drive(solver, inst, x0, first, advance, phi_at, counter, cfg)


def fbs_run(inst, cfg, u0):
    """Forward-backward splitting: u+ = prox_g(u + gamma*grad h(u)).

    Requires gamma < 1/L_h, which also keeps gamma times the largest
    negative curvature of h below one, so prox_h is single-valued. The
    residual is checked at the forward point, whose prox_h image is the
    iterate u itself, reusing the iterate's own prox_g evaluation.
    """
    smooth = _require_smooth(inst, "fbs")
    cfg.validate(inst.mu)
    gamma = cfg.gamma
    if smooth.lipschitz > 0 and gamma >= 1.0 / smooth.lipschitz:
        raise ValueError(
            f"fbs needs gamma < 1/L_h = {1.0 / smooth.lipschitz}, got {gamma}")
    counter = CallCounter()
    grad = counter.wrap(smooth.grad, "grad_h")
    prox_g = counter.wrap(inst.g.prox, "prox_g")

    def forward(u):
        point = u + gamma * grad(u)
        u_next = prox_g(point, gamma)
        return u_next, point, u, u_next

    return _baseline_run("fbs", inst, cfg, u0, counter, prox_g, forward,
                         lambda it: it.s)


def dca_run(inst, cfg, u0):
    """Classical DC iteration: v = grad h(u), u+ = argmin g - <v, .>.

    ``cfg.gamma`` enters only through the shared termination criterion at
    the forward point u + gamma*grad h(u), whose prox_h image is the
    iterate u; it must keep gamma*mu < 1, where that image is unique. The
    subproblem solve counts as prox_g, and so does the criterion's prox_g.
    """
    smooth = _require_smooth(inst, "dca")
    if inst.dca_step is None:
        raise CapabilityError("dca needs a subproblem solver on the instance")
    cfg.validate(inst.mu)
    gamma = cfg.gamma
    counter = CallCounter()
    grad = counter.wrap(smooth.grad, "grad_h")
    dca_step = counter.wrap(inst.dca_step, "prox_g")

    def forward(u):
        v = grad(u)
        return dca_step(v), u + gamma * v, u, None

    return _baseline_run("dca", inst, cfg, u0, counter,
                         counter.wrap(inst.g.prox, "prox_g"), forward,
                         lambda it: it.s)


def drs_run(inst, cfg, s0):
    """Douglas-Rachford on the split (-h) + g, smooth part first.

    u = prox of -h at s (a backward solve, counted as prox_h, and the only
    prox_h the solver makes), w = prox_g(2u - s), s+ = s + (w - u).
    Requires gamma times the largest curvature of h to stay below one so the
    backward solve is single-valued, and gamma*mu < 1 so prox_h is. The
    residual is checked at the reflected point 2u - s = u + gamma*grad h(u),
    whose prox_h image is the backward point u, reusing w.
    """
    smooth = _require_smooth(inst, "drs")
    cfg.validate(inst.mu)
    gamma = cfg.gamma
    curv = smooth.curvature_max
    if curv is not None and curv > 0 and gamma * curv >= 1.0:
        raise ValueError(
            f"drs needs gamma < 1/curvature = {1.0 / curv}, got {gamma}")
    counter = CallCounter()
    backward = counter.wrap(lambda s: smooth.backward(s, gamma), "prox_h")
    prox_g = counter.wrap(inst.g.prox, "prox_g")

    def forward(s):
        u = backward(s)
        reflected = 2.0 * u - s
        w = prox_g(reflected, gamma)
        return s + (w - u), reflected, u, w

    return _baseline_run("drs", inst, cfg, s0, counter, prox_g, forward,
                         lambda it: it.v)
