import numpy as np
import pytest

from rabitri import ModelParams


@pytest.fixture
def base_params():
    return ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05, theta=0.0)


def lose_the_root(monkeypatch, deep, row=None):
    """Make the continuation's Newton end above its tolerance in one of its
    two stages: the stacked float64 polish, or (deep) the stacked 50-digit
    one; in every row of it, or in the given row alone. Both stages pass
    each row's coupling as the column g; the multi-start's float64 batch,
    which passes none, runs as is."""
    from rabitri import meanfield
    newton = meanfield._newton

    def lost(p, x0, tol, g=None):
        roots = newton(p, x0, tol, g)
        if g is None or (x0.dtype == object) != deep:
            return roots
        return [None if row in (None, i) else x for i, x in enumerate(roots)]

    monkeypatch.setattr(meanfield, "_newton", lost)


def params(theta=0.0, g1=0.1, omega=1.0, delta=100.0, j_hop=0.05):
    return ModelParams(omega=omega, delta=delta, g1=g1, j_hop=j_hop,
                       theta=theta)


def assert_close(actual, expected, rtol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300))
    assert err <= rtol, f"{label}: rel err {err:.3e} > {rtol:.1e}"

