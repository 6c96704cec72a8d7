import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rankadapt.eranks import entropy_rank, stable_rank
from rankadapt.errors import DegenerateSpectrumError, ValidationError
from rankadapt.spectral import singular_values

from conftest import rand_matrix

# independent direct evaluation: p = (2/3, 1/3), H = ln 3 - (2/3) ln 2
ENTROPY_21 = math.exp(math.log(3.0) - (2.0 / 3.0) * math.log(2.0))


def test_uniform_spectrum():
    assert entropy_rank([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0, abs=1e-12)
    assert stable_rank([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0, abs=1e-12)


def test_rank_one_spectrum():
    assert entropy_rank([5.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert stable_rank([3.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_two_value_spectrum():
    assert entropy_rank([2.0, 1.0]) == pytest.approx(ENTROPY_21, abs=1e-9)
    assert stable_rank([2.0, 1.0]) == pytest.approx(1.5, abs=1e-12)


def test_degenerate_and_bad_gamma():
    with pytest.raises(DegenerateSpectrumError):
        entropy_rank([0.0, 0.0])
    with pytest.raises(DegenerateSpectrumError):
        stable_rank([0.0])
    with pytest.raises(ValidationError):
        entropy_rank([1.0], gamma=0.0)
    with pytest.raises(ValidationError):
        stable_rank([1.0], gamma=-2.0)
    with pytest.raises(ValidationError):
        entropy_rank([1.0, 2.0])  # not descending
    with pytest.raises(ValidationError):
        stable_rank([2.0, -1.0])


def ranks_of(w):
    """Entropy and stable rank of the singular spectrum of ``w``."""
    sigma = singular_values(w)
    return entropy_rank(sigma), stable_rank(sigma)


def test_rank_report_identity():
    sigma = singular_values(np.eye(8))
    assert sigma.shape == (8,)
    assert entropy_rank(sigma) == pytest.approx(8.0, abs=1e-9)
    assert stable_rank(sigma) == pytest.approx(8.0, abs=1e-9)


def test_rank_report_diagonal():
    ent, stable = ranks_of(np.diag([2.0, 1.0]))
    assert ent == pytest.approx(ENTROPY_21, abs=1e-6)
    assert stable == pytest.approx(1.5, abs=1e-9)
    assert stable <= ent + 1e-9


def test_rank_report_rank_one_outer_product():
    rng = np.random.default_rng(42)
    u = rng.standard_normal(10)
    v = rng.standard_normal(7)
    w = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    ent, stable = ranks_of(w)
    assert ent == pytest.approx(1.0, abs=1e-9)
    assert stable == pytest.approx(1.0, abs=1e-9)


def test_rank_report_zero_matrix():
    sigma = singular_values(np.zeros((3, 3)))
    with pytest.raises(DegenerateSpectrumError):
        entropy_rank(sigma)
    with pytest.raises(DegenerateSpectrumError):
        stable_rank(sigma)


def _spectra(min_size=1, max_size=12):
    # descending non-negative spectra with a positive head
    return st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=min_size, max_size=max_size,
    ).map(lambda xs: sorted(xs, reverse=True)).filter(lambda xs: xs[0] > 1e-300)


@seed(2024)
@settings(max_examples=300, deadline=None)
@given(sigma=_spectra())
def test_rank_ordering_property(sigma):
    assert stable_rank(sigma, 1.0) <= entropy_rank(sigma, 1.0) + 1e-9


@seed(2024)
@settings(max_examples=200, deadline=None)
@given(sigma=_spectra(), c=st.floats(min_value=1e-6, max_value=1e6))
def test_scale_invariance(sigma, c):
    scaled = [c * s for s in sigma]
    assert entropy_rank(scaled) == pytest.approx(entropy_rank(sigma), rel=1e-12)
    assert stable_rank(scaled) == pytest.approx(stable_rank(sigma), rel=1e-12)


@seed(2024)
@settings(max_examples=200, deadline=None)
@given(sigma=_spectra(min_size=2))
def test_bounds_property(sigma):
    k = len(sigma)
    for rank in (entropy_rank(sigma), stable_rank(sigma)):
        assert 1.0 - 1e-9 <= rank <= k + 1e-9


@seed(2024)
@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=1e-3, max_value=1e3),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_flattening_never_decreases_ranks(a, frac):
    b = a * frac
    assert entropy_rank([a, a]) + 1e-9 >= entropy_rank([a, b])
    assert stable_rank([a, a]) + 1e-9 >= stable_rank([a, b])


def test_lemma_holds_on_random_matrices():
    for seed_ in range(50):
        sigma = np.linalg.svd(rand_matrix(seed_, 12, 9), compute_uv=False)
        assert stable_rank(sigma) <= entropy_rank(sigma) + 1e-9
