"""Limited-memory quasi-Newton acceleration of the envelope gradient flow.

The envelope is once continuously differentiable with a cheap exact
gradient, so classical L-BFGS directions with a weak-Wolfe linesearch apply
directly, around the relaxed two-prox step: its ``evaluate`` gives each
point, with gradient (u - v)/gamma, and its ``plain_step`` is the fallback.
Every step claims an envelope decrease that the driver checks, a
quasi-Newton step the Armijo decrease C1*alpha*|grad'd| its linesearch
accepted. Safeguards: curvature pairs are stored only when well-scaled (the
envelope is C^1 but not C^2, so pairs near prox kinks can be noisy), a
non-descent direction is replaced by scaled steepest descent for that step
(the memory is kept), and an exhausted linesearch resets the memory and
takes the plain step with its guaranteed decrease.

When the prox of h is affine in its argument (quadratic h, say), one prox
evaluation per linesearch serves every trial stepsize; the call counters
reflect that.
"""

from collections import deque
from math import isfinite, sqrt

import numpy as np

# not called here: perfbench's layer tracer patches this name in this module
from .envelope import env_value_from_pair  # noqa: F401
from .reports import drive
from .two_prox import _relaxed_steps


# the classical constants: memory size, weak-Wolfe c1 < c2, the trial
# budget of one linesearch, and the relative curvature guard of a pair
MEMORY = 10
C1 = 1e-4
C2 = 0.9
MAX_BACKTRACKS = 30
CURVATURE_EPS = 1e-12


class LbfgsMemory:
    """Ring buffer of the last MEMORY (displacement, gradient change) pairs."""

    def __init__(self):
        self.pairs = deque(maxlen=MEMORY)

    def push(self, ds, dy):
        """Store a pair unless its curvature is below the relative guard."""
        sy = float(ds.dot(dy))
        guard = CURVATURE_EPS * sqrt(ds.dot(ds)) * sqrt(dy.dot(dy))
        if sy <= guard:
            return False
        self.pairs.append((ds.copy(), dy.copy(), 1.0 / sy))
        return True

    def direction(self, grad, fallback_scale):
        """Quasi-Newton descent direction for the given gradient.

        Empty memory yields scaled steepest descent -fallback_scale*grad;
        otherwise the standard two-loop recursion with the latest-pair
        initial scaling.
        """
        if not self.pairs:
            return -fallback_scale * grad
        q = grad.copy()
        alphas = []
        for ds, dy, rho in reversed(self.pairs):
            a = rho * float(ds.dot(q))
            alphas.append(a)
            q -= a * dy
        ds, dy, _ = self.pairs[-1]
        q *= float(ds.dot(dy)) / float(dy.dot(dy))
        for (ds, dy, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(dy.dot(q))
            q += (a - b) * ds
        return -q


def lbfgs_direction(memory, grad, fallback_scale):
    """Direction from ``memory``, replaced by scaled steepest descent unless
    it points downhill."""
    d = memory.direction(grad, fallback_scale)
    dg = float(d.dot(grad))
    if dg >= -1e-12 * sqrt(d.dot(d)) * sqrt(grad.dot(grad)):
        return -fallback_scale * grad
    return d


def wolfe_linesearch(eval_at, env0, grad0, d):
    """Weak-Wolfe search along d from a point with value env0, gradient grad0.

    ``eval_at(alpha)`` returns an object with ``env`` and ``grad`` fields at
    the trial point. Expands/bisects a bracket starting from alpha = 1;
    returns (alpha, evaluation) or (None, None) after MAX_BACKTRACKS trials.
    Raises ValueError when d is not a descent direction.
    """
    g0d = float(grad0.dot(d))
    if not g0d < 0:
        raise ValueError(f"linesearch needs a descent direction, got slope {g0d}")
    lo, hi = 0.0, np.inf
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        ev = eval_at(alpha)
        if not isfinite(ev.env) or ev.env > env0 + C1 * alpha * g0d:
            hi = alpha
        elif float(ev.grad.dot(d)) < C2 * g0d:
            lo = alpha
        else:
            return alpha, ev
        alpha = 0.5 * (lo + hi) if isfinite(hi) else 2.0 * lo
        if alpha <= 0 or not isfinite(alpha):
            break
    return None, None


def run_lbfgs(inst, cfg, s0):
    """Accelerated envelope descent with the two-prox termination criterion.

    Uses the same stepsize, tolerance and budget fields as ``run``; ``lam``
    only enters through the fallback step. Works for hypoconvex instances
    too: while gamma*mu < 1 the raw pair's envelope, which ``dce_eval``
    evaluates, is continuously differentiable with gradient (u - v)/gamma.
    """
    gamma = cfg.gamma
    counter, prox_h, evaluate, plain_step = _relaxed_steps(inst, cfg)
    memory = LbfgsMemory()
    h_affine = inst.h.prox_is_affine
    h_zero_image = None  # prox_h(0), lazily cached for affine reuse

    def with_grad(it):
        it.grad = it.gaps[0] / gamma
        return it

    def advance(it):
        nonlocal h_zero_image
        d = lbfgs_direction(memory, it.grad, gamma)

        # trial evaluations along s + alpha*d; affine prox_h needs one
        # fresh evaluation for the whole segment
        if h_affine:
            if h_zero_image is None:
                h_zero_image = prox_h(np.zeros(inst.dim), gamma)
            h_dir = prox_h(d, gamma) - h_zero_image

        def eval_at(alpha):
            return with_grad(evaluate(it.s + alpha * d,
                                      it.u + alpha * h_dir if h_affine else None))

        alpha, nxt = wolfe_linesearch(eval_at, it.env, it.grad, d)
        if nxt is None:
            memory.pairs.clear()
            nxt, claim = plain_step(it)
            return with_grad(nxt), claim
        memory.push(nxt.s - it.s, nxt.grad - it.grad)
        # the Armijo decrease the linesearch accepted, the same floats it tested
        return nxt, -(C1 * alpha * float(it.grad.dot(d)))

    return drive("dce-lbfgs", inst, s0, lambda s: with_grad(evaluate(s)), advance,
                 lambda it: it.v, counter, cfg)
