import numpy as np
import pytest

from rabitri import ModelParams


@pytest.fixture
def base_params():
    return ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05, theta=0.0)


def params(theta=0.0, g1=0.1, omega=1.0, delta=100.0, j_hop=0.05):
    return ModelParams(omega=omega, delta=delta, g1=g1, j_hop=j_hop,
                       theta=theta)


def assert_close(actual, expected, rtol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300))
    assert err <= rtol, f"{label}: rel err {err:.3e} > {rtol:.1e}"

