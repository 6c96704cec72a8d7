import ctypes
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rankadapt import spectral
from rankadapt.adapter import forward
from rankadapt.eranks import stable_rank
from rankadapt.errors import NumericError, ValidationError
from rankadapt.harness import finite_difference_check
from rankadapt.spectral import decompose, project_residual, reconstruct, singular_values
from rankadapt.stm import split_factors, split_weight

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
    # at the one entry of both routes, LAPACK's dgesdd and numpy.linalg.svd
    monkeypatch.setattr(spectral, "_svd", lambda *a, **k: tuple(x.copy() for x in factors))
    f = decompose(np.eye(4))
    assert np.array_equal(f.u, h)
    assert np.array_equal(f.vt, np.diag(signs))


@pytest.mark.parametrize("shape, dtype", [
    pytest.param((600, 200), np.float64, id="shape0"),
    pytest.param((200, 600), np.float64, id="shape1"),
    pytest.param((300, 300), np.float64, id="shape2"),
    # an integer matrix is widened in the SVD's one copy, not copied first
    pytest.param((600, 200), np.int64, id="int_tall"),
    pytest.param((200, 600), np.int64, id="int_wide"),
    pytest.param((300, 300), np.int64, id="int_square"),
])
def test_decompose_allocates_little_beyond_its_factors(shape, dtype):
    w = rand_matrix(59, *shape)
    if dtype is np.int64:
        w = np.rint(1000 * w).astype(np.int64)
    tracemalloc.start()
    try:
        f = decompose(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (f.u.nbytes + f.sigma.nbytes + f.vt.nbytes)


@pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.uint16, np.int64, np.float16])
def test_real_dtypes_give_the_results_of_their_float64_copy(dtype):
    w = (10 * rand_matrix(60, 9, 6)).astype(dtype)
    like = w.astype(np.float64)
    got, want = decompose(w), decompose(like)
    for a, b in ((got.u, want.u), (got.sigma, want.sigma), (got.vt, want.vt),
                 (singular_values(w), singular_values(like)),
                 (project_residual(got, w), project_residual(want, like))):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


_W = rand_matrix(58, 6, 4)
_F = decompose(_W)
_NOT_REAL = {
    "decompose": lambda: decompose(_W + 1j),
    "decompose_strings": lambda: decompose(_W.astype(str)),
    "decompose_objects": lambda: decompose(_W.astype(object)),
    "singular_values": lambda: singular_values(_W + 1j),
    "project_residual": lambda: project_residual(_F, _W + 1j),
    "forward": lambda: forward(split_weight(_W, split_factors(_F, (1,))), np.ones(4) + 1j),
    "finite_difference_check": lambda: finite_difference_check(
        lambda p: 0.0, np.ones(2) + 1j, np.ones(2)),
    "stable_rank": lambda: stable_rank([1 + 1j, 0.5]),
    "split_weight": lambda: split_weight(_W + 1j, split_factors(_F, (1,))),
}


@pytest.mark.parametrize("case", sorted(_NOT_REAL))
def test_non_real_input_raises_validation_error(case):
    # converting it would drop the imaginary part or fail with numpy's own error
    with pytest.raises(ValidationError, match="must be real"):
        _NOT_REAL[case]()


def test_decomposition_deterministic():
    w = rand_matrix(17, 10, 6)
    f1, f2 = decompose(w), decompose(w.copy())
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.vt, f2.vt)


@pytest.mark.parametrize("selected, match", [
    ({4}, "outside 1..3"),
    ({0}, "outside 1..3"),
    ({1.5}, "must be integers"),  # not truncated to component 1
], ids=["above_k", "zero", "fraction"])
def test_component_index_rejected(selected, match):
    with pytest.raises(ValidationError, match=match):
        split_factors(decompose(np.diag([3.0, 2.0, 1.0])), selected)


def test_bool_index_rejected():
    # True is not taken for component 1
    with pytest.raises(ValidationError, match="a bool is no index"):
        split_factors(decompose(rand_matrix(18, 6, 5)), [True])


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
    # LAPACK's dgesdd reports no convergence with info > 0; None selects numpy.linalg.svd
    for dgesdd in (lambda *args: 1, None):
        monkeypatch.setattr(spectral, "_dgesdd", dgesdd)
        with pytest.raises(NumericError):
            decompose(np.eye(3))
        with pytest.raises(NumericError):
            singular_values(np.eye(3))


needs_dgesdd = pytest.mark.skipif(spectral._dgesdd is None,
                                  reason="numpy's LAPACK lacks a LAPACKE symbol")


@needs_dgesdd
@pytest.mark.parametrize("missing", [f"scipy_LAPACKE_{routine}_work64_"
                                     for routine in ("dgesdd", "dgeqrf", "dorgqr")])
def test_lapack_symbols_are_found_all_or_none(monkeypatch, missing):
    assert None not in spectral._find_lapack()
    library = ctypes.CDLL

    class Renamed:
        """numpy's library as a wheel that renamed one symbol would have it."""

        def __init__(self, path):
            self._lib = library(path)

        def __getattr__(self, name):
            if name == missing:
                raise AttributeError(name)
            return getattr(self._lib, name)

    monkeypatch.setattr(ctypes, "CDLL", Renamed)
    # without any one symbol the SVD is np.linalg.svd's, never half the LAPACK route
    assert spectral._find_lapack() == (None, None, None)


@needs_dgesdd
@pytest.mark.parametrize("info", [1, -5])
@pytest.mark.parametrize("failing_call", [1, 2], ids=["workspace_query", "decomposition"])
@pytest.mark.parametrize("compute_uv", [True, False])
def test_lapack_info_maps_to_numeric_error(monkeypatch, info, failing_call, compute_uv):
    dgesdd, calls = spectral._dgesdd, []

    def failing_dgesdd(*args):
        calls.append(args)
        code = dgesdd(*args)
        return info if len(calls) == failing_call else code

    monkeypatch.setattr(spectral, "_dgesdd", failing_dgesdd)
    w = rand_matrix(3, 7, 5)
    with pytest.raises(NumericError, match="did not converge" if info > 0 else "argument 5"):
        decompose(w) if compute_uv else singular_values(w)
    assert len(calls) == failing_call


@needs_dgesdd
@pytest.mark.parametrize("failing", [False, True], ids=["returned", "not_converged"])
@pytest.mark.parametrize("compute_uv", [True, False])
def test_svd_buffers_are_unmapped_once_unreferenced(monkeypatch, failing, compute_uv):
    maps, mapped = [], spectral._mapped

    def spy(*shape):
        array = mapped(*shape)
        maps.append(weakref.ref(array.base))
        return array

    monkeypatch.setattr(spectral, "_mapped", spy)
    if failing:  # the workspace query succeeds, the decomposition does not converge
        dgesdd = spectral._dgesdd
        monkeypatch.setattr(spectral, "_dgesdd",
                            lambda *args: dgesdd(*args) if args[12] == -1 else 1)
    # with vectors, the one-shot route maps dgesdd's workspace, U and Vt. The
    # tall route maps the workspaces of dgeqrf, dorgqr and R's dgesdd, R, U_R,
    # Vt and, once R's SVD has converged, U. Without vectors, the workspace.
    routes = {(9, 5): 7 - failing, (5, 5): 3} if compute_uv else {(9, 5): 1, (5, 5): 1}
    for shape, count in routes.items():
        maps.clear()
        w = rand_matrix(75, *shape)
        try:
            decompose(w) if compute_uv else singular_values(w)
        except NumericError:
            assert failing
        else:
            assert not failing
        assert len(maps) == count, shape
        assert [ref() for ref in maps] == [None] * count, shape


def _f32_memmap(path, m, n):
    rand_matrix(67, m, n).astype(np.float32).tofile(path)
    return np.memmap(path, dtype=np.float32, mode="r", shape=(m, n))


@pytest.fixture
def qr_routes(monkeypatch):
    """The shape of each matrix that takes the tall route, in order."""
    routes, qr_gesdd = [], spectral._qr_gesdd
    monkeypatch.setattr(spectral, "_qr_gesdd", lambda a: routes.append(a.shape) or qr_gesdd(a))
    return routes


@needs_dgesdd
@pytest.mark.parametrize("case", ["tall", "wide", "square", "row", "column", "zero",
                                  "f32_memmap", "strided_view", "mnthr", "below_mnthr",
                                  "tall_zero", "tall_f32_memmap", "tiny", "huge", "huge_tall"])
def test_dgesdd_matches_numpy_svd_bit_for_bit(case, monkeypatch, tmp_path, qr_routes):
    # each case, and whether dgesdd's QR route (m >= floor(11 n / 6)) takes it,
    # which the scaling guard refuses where dgesdd would scale R, not the matrix
    make, qr_route = {
        "tall": (lambda: rand_matrix(61, 40, 12), True),
        "wide": (lambda: rand_matrix(62, 12, 40), False),
        "square": (lambda: rand_matrix(63, 25, 25), False),
        "row": (lambda: rand_matrix(64, 1, 9), False),
        "column": (lambda: rand_matrix(65, 9, 1), True),
        "zero": (lambda: np.zeros((4, 3)), False),
        "f32_memmap": (lambda: _f32_memmap(tmp_path / "w.bin", 30, 20), False),
        "strided_view": (lambda: rand_matrix(66, 40, 30)[::2, ::-3], True),
        "mnthr": (lambda: rand_matrix(67, 11, 6), True),
        "below_mnthr": (lambda: rand_matrix(68, 10, 6), False),
        "tall_zero": (lambda: np.zeros((12, 3)), True),
        "tall_f32_memmap": (lambda: _f32_memmap(tmp_path / "w.bin", 512, 64), True),
        "tiny": (lambda: rand_matrix(69, 40, 12) * 1e-150, False),
        "huge": (lambda: rand_matrix(70, 40, 12) * 1e150, False),
        "huge_tall": (lambda: rand_matrix(71, 400, 12) * 1e137, False),
    }[case]
    w = make()
    direct, direct_sigma = decompose(w), singular_values(w)
    assert qr_routes == ([w.shape] if qr_route else [])
    monkeypatch.setattr(spectral, "_dgesdd", None)  # the numpy.linalg.svd route
    fallback, fallback_sigma = decompose(w), singular_values(w)
    for got, want in ((direct.u, fallback.u), (direct.sigma, fallback.sigma),
                      (direct.vt, fallback.vt), (direct_sigma, fallback_sigma)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # each array owns its memory, so none is a view of a closed map
        assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable


@st.composite
def _svd_inputs(draw):
    """Matrices up to 4n x n, or their transposes, at a scale of 1 or one that dgesdd rescales.

    Each is of full rank, rank-deficient or with repeated columns; m is drawn
    around dgesdd's MNTHR too, and the scaling guard refuses the rescaled ones
    from the QR route.
    """
    n = draw(st.integers(1, 40))
    mnthr = int(n * 11 / 6)
    m = draw(st.integers(1, 4 * n) | st.sampled_from([max(1, mnthr + d) for d in (-1, 0, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "rank_deficient", "repeated_columns"]))
    if kind == "full":
        a = rng.standard_normal((m, n))
    elif kind == "rank_deficient":
        r = draw(st.integers(0, min(m, n) - 1))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    else:
        cols = rng.standard_normal((m, draw(st.integers(1, n))))
        a = cols[:, rng.integers(0, cols.shape[1], n)]
    if draw(st.booleans()):
        a = a.T
    return a * draw(st.sampled_from([1.0, 1e140, 1e-140, 1e160, 1e-160]))


def _assert_svd_is_numpys(a, like):
    """``spectral._svd(a)`` is ``np.linalg.svd(like)`` byte for byte, with vectors or without."""
    for compute_uv in (False, True):
        got = spectral._svd(a, compute_uv)
        want = np.linalg.svd(like, full_matrices=False, compute_uv=compute_uv)
        if not compute_uv:
            got, want = (got,), (want,)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


@needs_dgesdd
@seed(2025)
@settings(max_examples=300, deadline=None)
@given(a=_svd_inputs())
def test_svd_matches_numpy_svd_bit_for_bit(a):
    _assert_svd_is_numpys(a, a)


@needs_dgesdd
@pytest.mark.parametrize("case", ["tall", "tall_f32_memmap", "square", "wide"])
def test_svd_matches_numpy_svd_at_cli_sizes(case, tmp_path, qr_routes):
    # at the widths of real layers, where LAPACK's QR and BLAS's GEMM run
    # blocked; each case, and whether it takes the QR route
    make, qr_route = {
        "tall": (lambda: rand_matrix(76, 1536, 384), True),
        "tall_f32_memmap": (lambda: _f32_memmap(tmp_path / "w.bin", 1536, 384), True),
        "square": (lambda: rand_matrix(77, 384, 384), False),
        "wide": (lambda: rand_matrix(78, 384, 1536), False),
    }[case]
    w = make()
    _assert_svd_is_numpys(w, np.array(w, dtype=np.float64))
    assert qr_routes == ([w.shape] if qr_route else [])


def _mapped(path, stored, mode):
    stored.tofile(path)
    return np.memmap(path, dtype=stored.dtype, mode=mode, shape=stored.shape)


def _same_results(w, r, like_w, like_r):
    """Whether decompose, singular_values and project_residual of (w, r) equal those of the likes."""
    got, want = decompose(w), decompose(like_w)
    pairs = [(got.u, want.u), (got.sigma, want.sigma), (got.vt, want.vt),
             (singular_values(w), singular_values(like_w)),
             (project_residual(got, r), project_residual(want, like_r))]
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)


@pytest.mark.parametrize("mode", ["c", "r+"])
def test_writable_maps_keep_their_edits(mode, tmp_path):
    # dropping the private pages of a copy-on-write map would discard the edits
    w = _mapped(tmp_path / "w.bin", rand_matrix(71, 30, 20).astype(np.float32), mode)
    r = _mapped(tmp_path / "r.bin", rand_matrix(72, 30, 20).astype(np.float32), mode)
    w[0, 0], r[1, 1] = 100, -50
    like_w, like_r = np.array(w), np.array(r)
    assert _same_results(w, r, like_w, like_r)
    assert w.tobytes() == like_w.tobytes() and r.tobytes() == like_r.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_read_only_map_gives_the_results_of_its_copy(dtype, tmp_path, monkeypatch):
    paths = tmp_path / "w.bin", tmp_path / "r.bin"
    w = _mapped(paths[0], rand_matrix(73, 40, 24).astype(dtype), "r")
    r = _mapped(paths[1], rand_matrix(74, 40, 24).astype(dtype), "r")
    released, read_only_map = [], spectral._read_only_map

    def spy(array):
        found = read_only_map(array)
        if found is not None:
            released.extend(name for name, m in (("w", w), ("r", r))
                            if np.may_share_memory(array, m))
        return found

    monkeypatch.setattr(spectral, "_read_only_map", spy)
    assert _same_results(w, r, np.array(w), np.array(r))
    # each SVD and the projection copy their input, of either dtype, and
    # release its map
    assert released == ["w", "w", "r"]
    # the released maps read back as their files
    assert w.tobytes() == paths[0].read_bytes() and r.tobytes() == paths[1].read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_check_reads_the_copy_never_the_map(dtype, tmp_path, monkeypatch):
    stored = rand_matrix(85, 40, 24).astype(dtype)
    mapped = _mapped(tmp_path / "m.bin", stored, "r")
    f = decompose(stored)
    shares, check = [], spectral.as_finite_array

    def spy(x, *args, **kwargs):
        shares.append(np.may_share_memory(x, mapped))
        return check(x, *args, **kwargs)

    monkeypatch.setattr(spectral, "as_finite_array", spy)
    decompose(mapped)
    singular_values(mapped)
    project_residual(f, mapped)
    # the map is read once, into its copy, and the check scans the copy
    assert shares == [False, False, False]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of three pages and a bit, so that rows and blocks end inside a page."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 3 * mmap.PAGESIZE + 100)


BLOCKED_SHAPES = [pytest.param(shape, id="x".join(map(str, shape)))
                  for shape in [(1, 5000), (5000, 1), (1000, 17), (3, 5000)]]


@pytest.mark.parametrize("shape", BLOCKED_SHAPES)
def test_blocked_widening_gives_the_bits_of_the_array_in_memory(shape, tmp_path, small_blocks):
    paths = tmp_path / "w.bin", tmp_path / "r.bin"
    w = _mapped(paths[0], rand_matrix(75, *shape).astype(np.float32), "r")
    r = _mapped(paths[1], rand_matrix(76, *shape).astype(np.float32), "r")
    assert _same_results(w, r, np.array(w), np.array(r))
    assert w.tobytes() == paths[0].read_bytes() and r.tobytes() == paths[1].read_bytes()


class _RecordingMap(mmap.mmap):
    """A file map that records the span of each ``madvise`` call, ``()`` for the whole map."""

    def madvise(self, option, *span):
        self.spans.append(span)
        return super().madvise(option, *span)


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="releases pages with madvise")
@pytest.mark.parametrize("shape", BLOCKED_SHAPES)
def test_blocked_widening_releases_each_copied_page_once(shape, tmp_path, small_blocks):
    path = tmp_path / "r.bin"
    rand_matrix(77, *shape).astype(np.float32).tofile(path)
    with open(path, "rb") as fh:
        mm = _RecordingMap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    f = decompose(rand_matrix(78, *shape))
    # an array over the map, and one whose base chain ends in a memoryview of it
    for wrap in (lambda mm: np.ndarray(shape, np.float32, buffer=mm),
                 lambda mm: np.frombuffer(mm, np.float32).reshape(shape)):
        mm.spans = []
        r = wrap(mm)
        assert project_residual(f, r).tobytes() == project_residual(f, np.array(r)).tobytes()
        *ranges, whole = mm.spans
        # whole pages, in order, each once, up to r's last whole page; then the rest
        ends = [0, *(start + length for start, length in ranges)]
        assert [start for start, _ in ranges] == ends[:-1]
        assert all(length > 0 and length % mmap.PAGESIZE == 0 for _, length in ranges)
        assert ends[-1] == r.nbytes - r.nbytes % mmap.PAGESIZE
        assert whole == ()
        assert len(ranges) > 1 or r.nbytes < 2 * spectral._BLOCK_BYTES


def test_blocked_widening_keeps_a_copy_on_write_edit(tmp_path, small_blocks):
    r = _mapped(tmp_path / "r.bin", rand_matrix(79, 1000, 17).astype(np.float32), "c")
    r[-1, -1] = -50
    like = np.array(r)
    f = decompose(rand_matrix(80, 1000, 17))
    assert project_residual(f, r).tobytes() == project_residual(f, like).tobytes()
    assert r.tobytes() == like.tobytes()


def test_blocked_widening_finds_a_nan_in_the_last_row(tmp_path, small_blocks):
    stored = rand_matrix(81, 1000, 17)
    stored[-1, 5] = np.nan
    f = decompose(rand_matrix(82, 1000, 17))
    for dtype in (np.float32, np.float64):
        m = _mapped(tmp_path / f"{np.dtype(dtype).name}.bin", stored.astype(dtype), "r")
        for call, what in ((decompose, "matrix"), (singular_values, "matrix"),
                           (lambda r: project_residual(f, r), "residual")):
            with pytest.raises(ValidationError, match=f"^{what} contains non-finite entries$"):
                call(m)


@pytest.mark.parametrize("nan, message", [
    (False, r"^residual shape \(999, 17\) does not match factors \(1000, 17\)$"),
    (True, "^residual contains non-finite entries$"),  # checked before the shape
])
def test_blocked_widening_of_a_wrong_shape(nan, message, tmp_path, small_blocks):
    stored = rand_matrix(83, 999, 17).astype(np.float32)
    if nan:
        stored[-1, 0] = np.nan
    r = _mapped(tmp_path / "r.bin", stored, "r")
    with pytest.raises(ValidationError, match=message):
        project_residual(decompose(rand_matrix(84, 1000, 17)), r)
