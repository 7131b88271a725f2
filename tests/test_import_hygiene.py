"""Every process imports only what it runs, and the Gaussian tails that
made ``import repro`` slow keep their exact values.

Package roots are lazy (PEP 562, :func:`repro._lazy.lazy_exports`):
``import repro`` loads no submodule, and a gateway or a CLI process never
loads scipy, the TAP/TAPS mechanisms, the baselines or the experiments
runner.  Each process is checked in a fresh interpreter.

``scipy.stats`` costs about a second to import, ``scipy.special`` about a
third of one.  The library only needs the standard normal CDF, which
``scipy.special.ndtr`` computes with the same kernel
``scipy.stats.norm.cdf`` calls, imported where a discovery calls it, so
every probability below is pinned with ``==`` against a ``norm.cdf``
reference.
"""

from __future__ import annotations

import importlib
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

import repro
from repro.analysis.theory import constant_extension_probability, gaussian_tail
from repro.cli.bench import TARGETS
from repro.cli.run import MECHANISMS
from repro.core.extension import drift_allowance
from repro.experiments.runner import MECHANISM_REGISTRY

#: The package roots whose exports resolve on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.service",
    "repro.net",
    "repro.experiments",
)

#: What a gateway or a CLI process serves without: a discovery's stack.
DISCOVERY_ONLY = (
    "scipy",
    "repro.core.tap",
    "repro.core.taps",
    "repro.baselines",
    "repro.experiments.runner",
)

#: Module imported in a fresh interpreter → modules it must not load.
IMPORT_RULES = {
    "repro": ("scipy", "repro.core"),
    "repro.net.gateway": DISCOVERY_ONLY,
    "repro.cli": DISCOVERY_ONLY,
}


@pytest.mark.parametrize("module", sorted(IMPORT_RULES))
def test_import_loads_only_what_it_serves(module):
    code = (
        "import sys\n"
        f"import {module}\n"
        f"print(' '.join(m for m in {IMPORT_RULES[module]!r} if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [], f"import {module} loaded {result.stdout}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_star_import_of_the_root_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["TAPSMechanism"].__name__ == "TAPSMechanism"
    assert namespace["__version__"] == repro.__version__


def test_cli_mechanism_choices_equal_the_registry():
    assert list(MECHANISMS) == sorted(MECHANISM_REGISTRY)


def test_bench_targets_name_their_experiments_functions():
    import repro.experiments

    for name in TARGETS:
        assert callable(getattr(repro.experiments, name)), name


def test_import_repro_does_not_load_scipy_stats():
    code = (
        "import sys, repro\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
        "print('clean')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "clean"


def _reference_drift_allowance(freqs, k, k_star, sigma):
    """The scalar ``norm.cdf`` loop ``drift_allowance`` replaced."""
    freqs = np.asarray(freqs, dtype=np.float64)
    n = freqs.size
    if n == 0 or k_star >= n or sigma <= 1e-12:
        return 0.0
    lo = max(1, k_star - k + 1)
    hi = min(k, n - k_star)
    if hi < lo:
        return 0.0
    anchor_freq = freqs[k_star - 1]
    expectation = 0.0
    for x in range(lo, hi + 1):
        delta = anchor_freq - freqs[k_star + x - 1]
        expectation += x * float(norm.cdf(-delta / (sigma * math.sqrt(2.0))))
    return min(float(k), expectation)


def _grid():
    rng = np.random.default_rng(2025)
    for n in (1, 2, 7, 30, 120):
        for scale in (1e-3, 0.05, 1.0):
            freqs = np.sort(rng.exponential(scale, size=n))[::-1]
            for k in (1, 3, 10, 25):
                for k_star in sorted({1, 2, k, min(n, k + 2), n}):
                    for sigma in (1e-13, 1e-4, 3e-3, 0.04, 0.7):
                        yield freqs, k, k_star, sigma


def test_drift_allowance_equals_norm_cdf_reference():
    cases = 0
    for freqs, k, k_star, sigma in _grid():
        got = drift_allowance(freqs, k, k_star, sigma)
        assert got == _reference_drift_allowance(freqs, k, k_star, sigma), (
            freqs.size, k, k_star, sigma
        )
        cases += 1
    assert cases > 500


@pytest.mark.parametrize("sigma", [1e-3, 0.02, 0.5, 3.0])
def test_theory_tails_equal_norm_cdf_reference(sigma):
    for delta_f in np.linspace(0.0, 0.4, 41):
        reference = float(norm.cdf(-delta_f / (2.0 * sigma)))
        assert gaussian_tail(delta_f, sigma) == reference
        threshold = 2.0 * math.sqrt(math.pi) / (3.0 * 10 + 1.0)
        expected = 1.0 if reference > threshold else 0.0
        assert constant_extension_probability(delta_f, sigma, 10) == expected
