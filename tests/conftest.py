import os

import hypothesis
import numpy as np
import pytest
import scipy

hypothesis.settings.register_profile(
    "ci", max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("ci")


def pytest_report_header(config):
    """BLAS thread settings and libraries, so each log shows what produced it."""
    threads = ", ".join(f"{var}={os.environ.get(var, '(unset)')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    blas = ", ".join(
        f"{mod.__name__} {cfg['name']} {cfg['version']}"
        for mod in (np, scipy)
        for cfg in [mod.__config__.CONFIG["Build Dependencies"]["blas"]])
    return [f"BLAS threads: {threads}", f"BLAS: {blas}"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
