import threading

import numpy as np
import pytest

from voltconv import bases


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail any test that leaves a thread alive, other than the workers of
    the shared pool (bases._pool), which live for the process."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate()
            if t not in before and not t.name.startswith(bases._POOL_THREAD_PREFIX)]
    assert not left, f"threads left alive: {left}"


@pytest.fixture(params=["chebyshev", "legendre", "gegenbauer", "jacobi"])
def finite_basis(request):
    return {
        "chebyshev": bases.chebyshev(),
        "legendre": bases.legendre(),
        "gegenbauer": bases.gegenbauer(2.0),
        "jacobi": bases.jacobi(2.0, 1.5),
    }[request.param]


def rand_coeffs(seed, n):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)
