import os

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
