import numpy as np
import pytest


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def assert_discs_hold(discs, pairs):
    """A DiscSet holds the (id, Obstacle) pairs, in id order, bit for bit."""
    assert discs.ids.dtype == np.int64 and discs.ids.tolist() == [i for i, _ in pairs]
    assert len(discs) == len(pairs) and discs.centers.shape == (len(pairs), 2)
    for name, want in (("centers", [ob.center for _, ob in pairs]),
                       ("radii", [ob.radius for _, ob in pairs]),
                       ("weights", [ob.weight for _, ob in pairs])):
        want = np.array(want, float).reshape(getattr(discs, name).shape)
        assert getattr(discs, name).tobytes() == want.tobytes(), name


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
