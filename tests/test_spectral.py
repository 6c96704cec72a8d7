import tracemalloc

import numpy as np
import pytest

from rankadapt.errors import NumericError, ValidationError
from rankadapt.spectral import decompose, project_residual, reconstruct, singular_values

from conftest import rand_matrix


def test_identity_spectrum():
    f = decompose(np.eye(3))
    assert np.allclose(f.sigma, [1.0, 1.0, 1.0])


def test_diagonal_construction():
    f = decompose(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 2.0, 1.0])
    # sign convention maps both factor matrices back to the identity
    assert np.allclose(f.u, np.eye(3))
    assert np.allclose(f.vt, np.eye(3))


@pytest.mark.parametrize("shape", [(8, 8), (16, 8), (8, 16), (64, 64)])
def test_reconstruction_completeness(shape):
    w = rand_matrix(11, *shape)
    f = decompose(w)
    err = np.linalg.norm(reconstruct(f) - w) / np.linalg.norm(w)
    assert err <= 1e-10


def test_orthonormality_invariants():
    f = decompose(rand_matrix(3, 16, 8))
    assert np.max(np.abs(f.u.T @ f.u - np.eye(f.k))) <= 1e-10
    assert np.max(np.abs(f.vt @ f.vt.T - np.eye(f.k))) <= 1e-10
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)


def test_sign_convention_anchor_positive():
    f = decompose(rand_matrix(5, 12, 7))
    anchors = np.argmax(np.abs(f.u), axis=0)
    assert np.all(f.u[anchors, np.arange(f.k)] > 0)


def _documented_factors(w):
    """np.linalg.svd with the documented sign rule: argmax of |u| positive, first wins."""
    u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    anchor = np.argmax(np.abs(u), axis=0)
    flip = u[anchor, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    return u, sigma, vt


_HADAMARD_2 = np.array([[1.0, 1.0], [1.0, -1.0]])
_SIGN_RULE_CASES = {
    "tall": rand_matrix(51, 40, 12),
    "wide": rand_matrix(52, 12, 40),
    "square": rand_matrix(53, 25, 25),
    "hadamard_2": _HADAMARD_2,
    "hadamard_4": np.kron(_HADAMARD_2, _HADAMARD_2),
    "signed_permutation": np.eye(5)[[3, 0, 4, 1, 2]] * [1.0, -2.0, 3.0, -4.0, 5.0],
}


@pytest.mark.parametrize("case", sorted(_SIGN_RULE_CASES))
def test_sign_rule_matches_svd_bit_for_bit(case):
    w = _SIGN_RULE_CASES[case]
    f = decompose(w)
    u, sigma, vt = _documented_factors(w)
    # bytes, so a zero entry must keep its sign bit too
    assert f.u.tobytes() == u.tobytes()
    assert f.sigma.tobytes() == sigma.tobytes()
    assert f.vt.tobytes() == vt.tobytes()


def test_sign_rule_exact_ties_first_occurrence_wins(monkeypatch):
    # every column but the first has entries +-0.5 only, so its largest
    # positive and most negative entries tie exactly; the first entry decides
    h = np.kron(_HADAMARD_2, _HADAMARD_2) / 2.0
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    factors = (h * signs, np.array([4.0, 3.0, 2.0, 1.0]), np.eye(4))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: tuple(x.copy() for x in factors))
    f = decompose(np.eye(4))
    assert np.array_equal(f.u, h)
    assert np.array_equal(f.vt, np.diag(signs))


@pytest.mark.parametrize("shape", [(600, 200), (200, 600), (300, 300)])
def test_decompose_allocates_little_beyond_its_factors(shape):
    w = rand_matrix(59, *shape)
    tracemalloc.start()
    try:
        f = decompose(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (f.u.nbytes + f.sigma.nbytes + f.vt.nbytes)


def test_decomposition_deterministic():
    w = rand_matrix(17, 10, 6)
    f1, f2 = decompose(w), decompose(w.copy())
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.vt, f2.vt)


def test_reconstruct_partial():
    f = decompose(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(reconstruct(f, {1}), np.diag([3.0, 0.0, 0.0]))
    assert np.array_equal(reconstruct(f, set()), np.zeros((3, 3)))
    full = reconstruct(f, {1, 2, 3})
    assert np.linalg.norm(full - np.diag([3.0, 2.0, 1.0])) <= 1e-10 * np.linalg.norm(full)
    with pytest.raises(ValidationError):
        reconstruct(f, {4})
    with pytest.raises(ValidationError):
        reconstruct(f, {0})


def test_project_residual_zero():
    f = decompose(rand_matrix(2, 6, 9))
    assert np.array_equal(project_residual(f, np.zeros((6, 9))), np.zeros(6))


def test_project_residual_diagonal():
    f = decompose(np.diag([3.0, 2.0, 1.0]))
    d = project_residual(f, np.diag([0.0, 0.5, 0.9]))
    assert np.allclose(d, [0.0, 0.5, 0.9])


def test_project_residual_single_component():
    # residual built from the decomposition's own factors: the projection
    # must isolate exactly that component
    f = decompose(rand_matrix(23, 10, 8))
    c = -1.7
    residual = c * np.outer(f.u[:, 3], f.vt[3, :])
    d = project_residual(f, residual)
    assert abs(d[3] - abs(c)) <= 1e-10
    assert np.all(np.delete(d, 3) <= 1e-10)


def test_project_residual_sign_flip_invariant():
    from dataclasses import replace

    f = decompose(rand_matrix(29, 9, 9))
    residual = rand_matrix(31, 9, 9)
    u, vt = f.u.copy(), f.vt.copy()
    u[:, 2] *= -1
    vt[2, :] *= -1
    flipped = replace(f, u=u, vt=vt)
    assert np.allclose(project_residual(f, residual),
                       project_residual(flipped, residual), atol=1e-12)


def test_validation_errors():
    with pytest.raises(ValidationError):
        decompose(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        decompose(np.zeros((0, 3)))
    f = decompose(np.eye(3))
    with pytest.raises(ValidationError):
        project_residual(f, np.zeros((4, 3)))


def _flip(f, i):
    from dataclasses import replace

    u, vt = f.u.copy(), f.vt.copy()
    u[:, i] *= -1
    vt[i, :] *= -1
    return replace(f, u=u, vt=vt)


@pytest.mark.parametrize("case", ["tall", "wide", "square", "sign_flip", "zero"])
def test_project_residual_matches_three_operand_einsum(case):
    shape = {"tall": (15, 7), "wide": (7, 15)}.get(case, (9, 9))
    f = decompose(rand_matrix(37, *shape))
    residual = np.zeros(shape) if case == "zero" else rand_matrix(38, *shape)
    if case == "sign_flip":
        f = _flip(f, 4)
    reference = np.abs(np.einsum("mi,mn,in->i", f.u, residual, f.vt))
    d = project_residual(f, residual)
    assert np.max(np.abs(d - reference)) <= 1e-12 * np.max(reference)
    if case == "zero":
        assert np.array_equal(d, np.zeros(f.k))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_residual_rejects_non_finite(bad):
    f = decompose(rand_matrix(2, 6, 4))
    residual = np.zeros((6, 4))
    residual[3, 2] = bad
    with pytest.raises(ValidationError):
        project_residual(f, residual)


@pytest.mark.parametrize("shape", [(8, 8), (16, 8), (8, 16), (40, 24)])
def test_singular_values_match_decompose(shape):
    w = rand_matrix(43, *shape)
    sigma = decompose(w).sigma
    s = singular_values(w)
    assert s.shape == sigma.shape
    assert np.max(np.abs(s - sigma)) <= 1e-12 * sigma[0]


@pytest.mark.parametrize("bad", [
    np.array([[1.0, np.nan], [0.0, 1.0]]),
    np.array([[np.inf, 0.0]]),
    np.zeros((0, 3)),
    np.zeros(4),
])
def test_singular_values_validate_like_decompose(bad):
    with pytest.raises(ValidationError):
        decompose(bad)
    with pytest.raises(ValidationError):
        singular_values(bad)


def test_svd_failure_maps_to_numeric_error(monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericError):
        decompose(np.eye(3))
    with pytest.raises(NumericError):
        singular_values(np.eye(3))
