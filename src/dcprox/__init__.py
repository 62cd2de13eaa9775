"""Proximal solvers for difference-of-convex programs via envelope smoothing."""

from .envelope import DcInstance, SmoothFunction, smooth_view
from .baselines import dca_run, drs_run, fbs_run
from .lbfgs import LbfgsMemory, lbfgs_direction, run_lbfgs, wolfe_linesearch
from .problems import (
    SpcaInstance,
    SyntheticInstance,
    kappa_default,
    make_spca,
    make_spca3,
    power_lambda_max,
    problem_from_json,
    synthetic_catalogue,
)
from .prox import (
    BlockSeparable,
    CapabilityError,
    L1Ball,
    L1Norm,
    Linear,
    ProxFunction,
    Quadratic,
    ScaledSquare,
    Zero,
    prox_l1_ball,
    soft_threshold,
)
from .reports import RunReport, Termination
from .three_prox import ThreeTermInstance, run3
from .two_prox import TwoProxConfig, dce_eval, descent_coefficient, run, sandwich_bounds

_submodules = {"baselines", "checks", "envelope", "kernels", "lbfgs", "problems",
               "prox", "reports", "three_prox", "two_prox"}
__all__ = [name for name in dir()
           if not name.startswith("_") and name not in _submodules]
__version__ = "0.1.0"
