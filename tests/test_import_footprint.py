"""Replay and serve processes import only what they run.

``scipy.special`` is the design search's dependency alone (the normal cdf in
expected improvement), and on current scipy it is ~25 MiB of resident memory
at import.  ``import repro`` and the replay / serve / scenario packages must
not load any ``scipy`` module; the first ``expected_improvement`` call does,
and its values are those of ``scipy.special.ndtr`` bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.bayesopt.acquisition import expected_improvement

REPO_ROOT = Path(__file__).resolve().parents[1]

_PROBE = textwrap.dedent(
    """
    import sys

    import numpy as np

    import repro, repro.dataplane, repro.serve, repro.scenarios

    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, f"import repro loaded {loaded}"
    from repro.bayesopt.acquisition import expected_improvement

    expected_improvement(np.zeros(2), np.ones(2), best=0.0)
    assert "scipy.special" in sys.modules
    print("ok")
    """
)


def test_import_loads_no_scipy_until_expected_improvement():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert process.returncode == 0 and process.stdout.strip() == "ok", process.stderr


def _reference_ei(mean, std, best, xi=0.01):
    """Expected improvement with a module-level ``ndtr``, as it was computed."""
    from scipy.special import ndtr

    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best - xi
    z = improvement / std
    pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
    return improvement * ndtr(z) + std * pdf


_Z = np.linspace(-40.0, 40.0, 1000)


@pytest.mark.parametrize(
    "mean, std, best, xi",
    [
        (_Z, np.ones(1000), 0.0, 0.0),  # z across +-40
        (_Z * 0.25 + 0.3, np.full(1000, 0.25), 0.3, 0.0),
        (np.zeros(1000), np.ones(1000), 0.0, 0.0),  # z = 0
        (np.array([0.0]), np.array([1.0]), 0.0, 0.0),
        (np.array([0.7]), np.array([0.0]), 0.5, 0.01),  # std at the floor
        (np.linspace(-1, 1, 1000), np.full(1000, 1e-13), 0.0, 0.01),
        (np.array([]), np.array([]), 0.5, 0.01),
        (np.array([0.62]), np.array([0.04]), 0.6, 0.01),
    ],
)
def test_expected_improvement_is_bit_identical_to_ndtr(mean, std, best, xi):
    got = expected_improvement(mean, std, best, xi)
    want = _reference_ei(mean, std, best, xi)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
