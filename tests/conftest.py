import os
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from rankadapt import spectral

# Hypothesis imports this module when a test fails, to print a patch; its
# libcst dependency imports mypy_extensions.TypedDict, whose DeprecationWarning
# filterwarnings = ["error"] would raise inside pytest's report hook and end
# the whole run with INTERNALERROR. Imported here once, the failure stays one
# failed test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst, so Hypothesis prints no patch
        pass


# any value a JSON document can hold, for fuzzing readers of JSON records
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_matrix(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


def count_svd_calls(monkeypatch):
    """Count the SVDs by compute_uv, at ``spectral._svd``, the one entry of both routes."""
    calls = {True: 0, False: 0}
    svd = spectral._svd

    def counting_svd(matrix, compute_uv):
        calls[compute_uv] += 1
        return svd(matrix, compute_uv)

    monkeypatch.setattr(spectral, "_svd", counting_svd)
    return calls


COMMIT_FAILURES = ["rename_aside", "rename_in", "write_manifest"]


def break_commit(monkeypatch, failure: str) -> None:
    """Make the next staged bundle commit fail with OSError at ``failure``.

    ``rename_aside`` and ``rename_in`` fail the swap's first and second
    ``os.rename``; ``write_manifest`` fails ``rankadapt.tensorio.write_manifest``,
    where every writer looks it up at call time, inside the staged block.
    """
    def fail(*_):
        raise OSError("disk full")

    if failure == "write_manifest":
        monkeypatch.setattr("rankadapt.tensorio.write_manifest", fail)
        return
    rename = os.rename
    calls = []

    def failing_rename(src, dst):
        calls.append(dst)
        if len(calls) == COMMIT_FAILURES.index(failure) + 1:
            fail()
        rename(src, dst)

    monkeypatch.setattr(os, "rename", failing_rename)
