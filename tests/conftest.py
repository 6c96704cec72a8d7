import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_matrix(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


def count_svd_calls(monkeypatch):
    """Wrap numpy.linalg.svd; return a dict of call counts keyed by compute_uv."""
    calls = {True: 0, False: 0}
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls[kwargs.get("compute_uv", True)] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls
