import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from atsplit.model import (
    DeviceSpec,
    DriveParams,
    ThreeLevelModel,
    rates_from_coherence_times,
)

#: Published device values used throughout the tests.
T1_US = 39.0
T2_STAR_US = 51.0
OMEGA_P = 0.186
OMEGA01_GHZ = 4.294085
OMEGA12_GHZ = 4.116609
FIG3_COUPLERS = (0.354, 0.707, 1.41, 2.82, 5.63, 11.2)

#: The repository root, which holds ``bench/`` and ``tools/``.
ROOT = Path(__file__).resolve().parents[1]


def load_module(path: Path):
    """A module outside the package, such as ``bench/check.py``, executed once
    per session.  It is registered in ``sys.modules`` under its file's stem,
    so ``check``'s ``from workloads import`` finds ``workloads`` once that is
    loaded, and ``sys.path`` stays as it is."""
    if path.stem not in sys.modules:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[path.stem] = module
        spec.loader.exec_module(module)
    return sys.modules[path.stem]


def random_density_matrix(rng) -> np.ndarray:
    """A full-rank 3x3 density matrix, A A^dagger over its trace for a
    complex Gaussian A drawn from ``rng``."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / rho.trace()


@pytest.fixture(scope="session")
def paper_rates():
    return rates_from_coherence_times(T1_US, T2_STAR_US)


@pytest.fixture(scope="session")
def paper_device():
    return DeviceSpec(omega01=OMEGA01_GHZ, omega12=OMEGA12_GHZ)


@pytest.fixture()
def paper_model(paper_rates):
    """Probe-only model at the published probe amplitude."""
    return ThreeLevelModel(DriveParams(omega_p=OMEGA_P), paper_rates)
