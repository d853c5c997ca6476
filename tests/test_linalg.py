"""Dense Hermitian kernel: eigensolver, pseudo-inverse, pencil shift."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biframekit import errors, linalg
from helpers import bisection_shift, random_matrix, random_psd


# ---------------------------------------------------------------------------
# hypothesis strategies


def _hermitian(dim: int, complex_: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    if complex_:
        a = a + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def _general(rows: int, cols: int, complex_: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    if complex_:
        a = a + 1j * rng.normal(size=(rows, cols))
    return a


general_matrices = st.builds(
    _general,
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


# ---------------------------------------------------------------------------
# eigensolver


def test_eigen_golden_two_by_two():
    # A 2x2 with known spectrum {-1/6, 13/6}.
    eig = linalg.hermitian_eigen(np.array([[1.0, 7.0 / 6.0], [7.0 / 6.0, 1.0]]))
    assert eig.values == pytest.approx([-1.0 / 6.0, 13.0 / 6.0], abs=1e-12)
    # eigenvectors: (1, -1)/sqrt(2) and (1, 1)/sqrt(2), first entry positive
    assert eig.vectors[:, 0] == pytest.approx([1 / math.sqrt(2), -1 / math.sqrt(2)], abs=1e-12)
    assert eig.vectors[:, 1] == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-12)


def test_eigen_scalar_matrix():
    eig = linalg.hermitian_eigen(np.array([[4.5]]))
    assert eig.values == pytest.approx([4.5])
    assert eig.min == pytest.approx(4.5)
    assert eig.max == pytest.approx(4.5)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigen_scalar_matrix_vector_is_one_in_the_input_dtype(dtype):
    # the eigenvectors are the lower half of the rotation stack: at dim 1 no
    # rotation runs and the stack's identity block is the answer
    eig = linalg.hermitian_eigen(np.array([[-2.5]], dtype=dtype))
    assert eig.vectors.dtype == dtype
    assert eig.vectors.tolist() == [[1]]
    assert eig.values.tolist() == [-2.5]


def test_eigen_complex_two_by_two_vectors_are_orthonormal_with_real_positive_pivots():
    # spectrum {1, 4}: one rotation turns the matrix and its eigenvectors together
    a = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    eig = linalg.hermitian_eigen(a)
    assert eig.values == pytest.approx([1.0, 4.0], rel=0, abs=1e-14)
    v = eig.vectors
    assert v.dtype == np.complex128
    assert np.allclose(v.conj().T @ v, np.eye(2), rtol=0, atol=1e-15)
    assert np.allclose(a @ v, v * eig.values, rtol=0, atol=1e-14)
    assert np.all(v[0].imag == 0.0) and np.all(v[0].real > 0.0)


def _eigen_input(dim: int, complex_: bool, seed: int, kind: str, exponent: int) -> np.ndarray:
    """``10^exponent`` times a dense Hermitian matrix of ``dim`` rows, or
    ``kron(I_3, h)`` of a dense ``h`` (every eigenvalue threefold), or an
    exactly diagonal matrix."""
    if kind == "repeated":
        h = np.kron(np.eye(3), _hermitian(max(1, dim // 3), complex_, seed))
    elif kind == "diagonal":
        h = np.diag(np.random.default_rng(seed).normal(size=dim))
        h = h.astype(complex) if complex_ else h
    else:
        h = _hermitian(dim, complex_, seed)
    return h * 10.0 ** exponent


# the sizes the workloads decompose (dims up to 64), at every scale
eigen_inputs = st.builds(
    _eigen_input,
    dim=st.integers(1, 64),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dense", "dense", "repeated", "diagonal"]),
    exponent=st.one_of(st.just(0), st.integers(-150, 150)),
)


@settings(max_examples=120, deadline=None)
@given(eigen_inputs)
def test_eigen_matches_lapack(h):
    eig = linalg.hermitian_eigen(h)
    ref = np.linalg.eigvalsh(h)
    scale = float(np.abs(ref).max())
    assert np.allclose(eig.values, ref, rtol=0.0, atol=1e-14 * h.shape[0] * scale)


@settings(max_examples=80, deadline=None)
@given(eigen_inputs)
def test_eigen_vectors_are_orthonormal_eigenvectors(h):
    eig = linalg.hermitian_eigen(h)
    n = h.shape[0]
    v = eig.vectors
    scale = float(np.abs(eig.values).max())
    assert np.allclose(v.conj().T @ v, np.eye(n), rtol=0.0, atol=1e-14 * n)
    assert np.linalg.norm(h @ v - v * eig.values) <= 1e-14 * n * scale


def test_eigen_near_diagonal_with_round_off_noise():
    # Regression: matrices that are diagonal up to ~1e-15 round-off must
    # converge immediately instead of chasing phantom off-diagonal mass.
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        scale = float(rng.choice([1.0, 1e3, 1e6]))
        noise = rng.normal(size=(n, n)) * 1e-15 * scale
        m = np.diag(rng.normal(size=n) * scale) + (noise + noise.T) / 2.0
        eig = linalg.hermitian_eigen(m)
        ref = np.linalg.eigvalsh(m)
        assert np.allclose(eig.values, ref, atol=1e-9 * max(1.0, scale))


def test_eigen_rejects_non_hermitian():
    with pytest.raises(errors.NotHermitianError):
        linalg.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e155, 1e300])
def test_eigen_is_right_where_the_frobenius_norm_under_or_overflows(c):
    eig = linalg.hermitian_eigen(np.ones((2, 2)) * c)
    assert eig.values / c == pytest.approx([0.0, 2.0], abs=1e-14)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_eigen_rejects_non_hermitian_at_any_scale(c):
    with pytest.raises(errors.NotHermitianError):
        linalg.hermitian_eigen(np.array([[1.0, 5.0], [0.0, 1.0]]) * c)


@pytest.mark.parametrize("j", [-900, -500, 500, 900])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_eigen_commutes_with_powers_of_two(j, complex_):
    h = _hermitian(7, complex_, seed=abs(j) + complex_)
    eig, scaled = linalg.hermitian_eigen(h), linalg.hermitian_eigen(h * 2.0 ** j)
    assert np.array_equal(scaled.values, eig.values * 2.0 ** j)
    assert np.array_equal(scaled.vectors, eig.vectors)


def test_eigen_rejects_non_square():
    with pytest.raises(errors.DimensionMismatchError):
        linalg.hermitian_eigen(np.ones((2, 3)))


def test_min_eigenpair_returns_bottom_of_spectrum():
    val, vec = linalg.min_eigenpair(np.diag([3.0, -2.0, 5.0]))
    assert val == pytest.approx(-2.0)
    assert np.abs(vec) == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# psd predicates and square root


def test_is_psd_basic():
    assert linalg.is_psd(np.diag([1.0, 0.0]))
    assert not linalg.is_psd(np.diag([1.0, -1e-3]))
    # tolerance: tiny negative eigenvalues still count as PSD
    assert linalg.is_psd(np.diag([1.0, -1e-13]))


@settings(max_examples=60, deadline=None)
@given(general_matrices)
def test_sqrt_psd_squares_back(a):
    gram = a @ a.conj().T
    root = linalg.sqrt_psd(linalg.hermitian_eigen(gram))
    assert np.allclose(root, root.conj().T, atol=1e-12 * max(1, np.linalg.norm(gram)))
    assert np.allclose(root @ root, gram, atol=1e-8 * max(1.0, float(np.linalg.norm(gram))))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(errors.NotPSDError):
        linalg.sqrt_psd(linalg.hermitian_eigen(np.diag([1.0, -1.0])))


# ---------------------------------------------------------------------------
# pseudo-inverse, rank, range


@settings(max_examples=100, deadline=None)
@given(general_matrices)
def test_pseudo_inverse_penrose_axioms(a):
    plus = linalg.pseudo_inverse(a)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(plus)))
    tol = 1e-9 * scale * scale
    assert np.allclose(a @ plus @ a, a, atol=tol)
    assert np.allclose(plus @ a @ plus, plus, atol=tol)
    assert np.allclose((a @ plus).conj().T, a @ plus, atol=tol)
    assert np.allclose((plus @ a).conj().T, plus @ a, atol=tol)


def test_pseudo_inverse_zero_matrix():
    plus = linalg.pseudo_inverse(np.zeros((2, 4)))
    assert plus.shape == (4, 2)
    assert np.all(plus == 0.0)


def test_pseudo_inverse_drops_tiny_singular_values():
    # rank 1 up to noise far below the rank cutoff
    a = np.outer([1.0, 2.0], [3.0, 4.0]) + 1e-14 * np.eye(2)
    assert linalg.operator_rank(a) == 1
    plus = linalg.pseudo_inverse(a)
    assert np.linalg.norm(plus) < 1.0  # a true inverse would blow up to ~1e14


def test_operator_rank():
    assert linalg.operator_rank(np.zeros((3, 3))) == 0
    assert linalg.operator_rank(np.eye(3)) == 3
    assert linalg.operator_rank(np.diag([1.0, 1e-14, 2.0])) == 2


def test_orthonormal_range_and_nullspace():
    a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    basis, sigma = linalg.orthonormal_range(a)
    null, null_sigma, coimage = linalg.orthonormal_nullspace(a)
    # both hand back the singular values they cut by: ||a|| = sigma[0] = 5
    assert sigma[0] == pytest.approx(5.0, rel=1e-15)
    assert null_sigma[0] == pytest.approx(5.0, rel=1e-15)
    assert basis.shape == (3, 1)
    assert null.shape == (3, 2)
    assert coimage.shape == (3, 1)
    assert np.allclose(basis.conj().T @ basis, np.eye(1), atol=1e-12)
    assert np.allclose(null.conj().T @ null, np.eye(2), atol=1e-12)
    # range basis reproduces the columns, nullspace is annihilated
    assert np.allclose(basis @ (basis.conj().T @ a), a, atol=1e-12)
    assert np.allclose(a @ null, 0.0, atol=1e-12)
    # the coimage completes the kernel to an orthonormal basis: range(a*),
    # on which a stretches by sigma
    both = np.hstack([coimage, null])
    assert np.allclose(both.conj().T @ both, np.eye(3), atol=1e-12)
    assert np.allclose(coimage @ coimage.conj().T, linalg.pseudo_inverse(a) @ a, atol=1e-12)
    assert np.allclose(np.linalg.norm(a @ coimage, axis=0), sigma[:1], rtol=1e-15)


@pytest.mark.parametrize("j", [-1074, -900, -500, 0, 500, 900, 1021])
def test_unit_vector_at_any_scale(j):
    # 2^j (3, -4, 0) is exact down to the smallest subnormal, and so is its
    # direction: the norm is taken on v / 2^e, whose squares stay in range
    v = np.array([3.0, -4.0, 0.0])
    with np.errstate(over="raise", invalid="raise"):
        got = linalg.unit_vector(math.ldexp(1.0, j) * v)
    assert np.array_equal(got, linalg.unit_vector(v))
    assert np.array_equal(got, [0.6, -0.8, 0.0])


def test_unit_vector_rejects_the_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        linalg.unit_vector(np.zeros(3))


def test_spectral_norm_golden_ratio():
    value = linalg.spectral_norm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert value == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_invert_rejects_singular():
    with pytest.raises(errors.SingularOperatorError):
        linalg.invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    inv, sigma = linalg.invert(np.array([[2.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(inv, np.diag([0.5, 0.25]))
    assert sigma.tolist() == [4.0, 2.0]  # descending: ||a|| = 4, ||a^-1|| = 1/2


# ---------------------------------------------------------------------------
# hermitian part / asymmetry / canonical sign


def test_hermitian_part_and_asymmetry_decompose():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    h = linalg.hermitian_part(a)
    skew = linalg.asymmetry(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 3.0]])
    assert skew == pytest.approx(np.linalg.norm(a - a.T, 2) / np.linalg.norm(a, 2))


def test_hermitian_part_stays_finite_near_the_top_of_the_range():
    h = np.diag([1.5e308, 1e308])
    assert np.array_equal(linalg.hermitian_part(h), h)


def test_canonical_sign_fixes_phase():
    v = linalg.canonical_sign(np.array([-0.6, 0.8]))
    assert v[0] > 0
    w = linalg.canonical_sign(np.array([1j, 0.0], dtype=complex))
    assert w[0].real > 0 and abs(w[0].imag) < 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_canonical_sign_is_idempotent_and_column_wise(seed):
    # the pivot is set to its modulus exactly, so a second pass is a no-op,
    # and a matrix is the columns normalised one by one
    rng = np.random.default_rng(seed)
    for complex_ in (False, True):
        m = random_matrix(rng, 4, 3, complex_)
        once = linalg.canonical_sign(m)
        assert np.array_equal(linalg.canonical_sign(once), once)
        for j in range(3):
            column = linalg.canonical_sign(m[:, j])
            assert np.array_equal(column, once[:, j])
            assert np.array_equal(linalg.canonical_sign(column), column)
            assert column[0].imag == 0.0 and column[0].real > 0.0


# ---------------------------------------------------------------------------
# max_psd_shift (the pencil engine behind every lower bound)


@pytest.mark.parametrize(
    "s, k, expected",
    [
        (np.diag([5.0, 7.0, 11.0]), 2.0 * np.eye(3), 1.25),
        (np.diag([4.0, 3.0, 2.0]), np.eye(3), 2.0),
        (np.diag([2.0, 1.0]), np.diag([1.0, 0.0]), 2.0),
        # s vanishes only on null(k*)
        (np.diag([2.0, 0.0]), np.diag([1.0, 0.0]), 2.0),
        # s couples range(k) to null(k*): the constant is 2 - 1*1/1
        (np.array([[2.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 0.0]), 1.0),
        (np.array([[2.0, 1j], [-1j, 1.0]]), np.diag([1.0, 0.0]), 1.0),
    ],
)
def test_max_psd_shift_golden(s, k, expected):
    res = linalg.max_psd_shift(linalg.hermitian_eigen(s), k)
    assert res.amount == pytest.approx(expected, abs=1e-9)
    assert not res.degenerate


def test_max_psd_shift_witness_is_tight_direction():
    res = linalg.max_psd_shift(linalg.hermitian_eigen(np.diag([5.0, 7.0, 11.0])), 2.0 * np.eye(3))
    assert np.abs(res.witness) == pytest.approx([1.0, 0.0, 0.0], abs=1e-8)


def test_max_psd_shift_indefinite_s_has_no_shift():
    res = linalg.max_psd_shift(linalg.hermitian_eigen(np.diag([1.0, -1.0])), np.eye(2))
    assert res.amount is None
    assert np.abs(res.witness) == pytest.approx([0.0, 1.0], abs=1e-10)


def test_max_psd_shift_zero_reference_is_degenerate():
    res = linalg.max_psd_shift(linalg.hermitian_eigen(np.eye(2)), np.zeros((2, 2)))
    assert res.degenerate
    assert res.amount == math.inf
    # ... unless s itself fails PSD
    res2 = linalg.max_psd_shift(linalg.hermitian_eigen(np.diag([1.0, -1.0])), np.zeros((2, 2)))
    assert res2.degenerate and res2.amount is None


def test_max_psd_shift_reads_a_column_major_complex_factor():
    # as_matrix keeps the memory order of a transposed input
    k = (np.diag([2.0, 4.0, 8.0]) + 0j).T
    res = linalg.max_psd_shift(linalg.hermitian_eigen(np.eye(3)), k)
    assert res.amount == pytest.approx(1.0 / 64.0)


@pytest.mark.parametrize("gap, amount", [(1e-13, None), (1e-10, 4.99999636e-8)])
def test_max_psd_shift_zero_shift_branch(gap, amount):
    # s = diag(1, -1e-9 (1 - gap)) is PSD at tolerance and k* misses its null
    # space by the range test, so the whitened shift is computed; near
    # gap = 1e-13 it is so small that amount * sigma_max(k)^2 lies within the
    # cutoff of s, which reports no shift, while gap = 1e-10 clears it
    s = np.diag([1.0, -1e-9 * (1.0 - gap)])
    k = np.array([[1.0, 0.0], [1e-6, 0.0]])
    res = linalg.max_psd_shift(linalg.hermitian_eigen(s), k)
    assert not res.degenerate
    if amount is None:
        assert res.amount is None
    else:
        assert res.amount == pytest.approx(amount, rel=1e-8, abs=0.0)
    # the tight direction of the whitened pencil witnesses either side
    assert abs(res.witness[1]) == pytest.approx(1.0, rel=1e-12)


def test_max_psd_shift_zero_s_gives_none():
    res = linalg.max_psd_shift(linalg.hermitian_eigen(np.zeros((2, 2))), np.eye(2))
    assert res.amount is None


@pytest.mark.parametrize("n, r", [(5, 1), (5, 3), (4, 6), (3, 7)])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_max_psd_shift_non_square_factor_matches_its_zero_padded_square_form(n, r, complex_):
    # a tall n x r factor pads with zero columns to n x n; a wide one is the
    # zero padding of an n x n factor: either way k k* is the same matrix
    rng = np.random.default_rng(10 * n + r + complex_)
    s = random_psd(rng, n, complex_) + 0.05 * np.eye(n)
    square = random_matrix(rng, n, min(n, r), complex_)
    square = np.hstack([square, np.zeros((n, n - square.shape[1]), dtype=square.dtype)])
    factor = square[:, :r] if r < n else np.hstack(
        [square, np.zeros((n, r - n), dtype=square.dtype)])
    eig = linalg.hermitian_eigen(s)
    got, want = linalg.max_psd_shift(eig, factor), linalg.max_psd_shift(eig, square)
    assert got.amount == pytest.approx(want.amount, rel=1e-9)
    assert got.witness == pytest.approx(want.witness, abs=1e-9)


def test_max_psd_shift_shape_mismatch():
    # a spectrum of dimension 2 against a factor with 3 rows
    with pytest.raises(errors.DimensionMismatchError):
        linalg.max_psd_shift(linalg.hermitian_eigen(np.eye(2)), np.eye(3))


@pytest.mark.parametrize("k", [np.ones((2, 3)), np.ones((2, 5)), np.ones((4, 1))])
def test_max_psd_shift_factor_rows_must_match_s(k):
    with pytest.raises(errors.DimensionMismatchError):
        linalg.max_psd_shift(linalg.hermitian_eigen(np.eye(3)), k)


def test_max_psd_shift_is_maximal():
    # a is feasible; a * 1.05 is not
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        complex_ = bool(rng.integers(0, 2))

        def draw(cols):
            m = rng.normal(size=(n, cols))
            return m + 1j * rng.normal(size=(n, cols)) if complex_ else m

        m = draw(n)
        s = m @ m.conj().T + 0.05 * np.eye(n)
        s = (s + s.conj().T) / 2.0
        rank = int(rng.integers(1, n + 1))
        b = draw(rank)
        p = (b @ b.conj().T + (b @ b.conj().T).conj().T) / 2.0
        res = linalg.max_psd_shift(linalg.hermitian_eigen(s), b)
        assert res.amount is not None and res.amount > 0
        scale = max(1.0, np.linalg.norm(s, 2))
        feasible = np.linalg.eigvalsh(s - res.amount * p).min()
        assert feasible >= -1e-7 * scale
        pushed = np.linalg.eigvalsh(s - 1.05 * res.amount * p).min()
        assert pushed < 1e-9 * scale


def test_max_psd_shift_matches_bisection_oracle():
    # PSD s of every rank, with and without a definite cushion, against
    # factors k of every rank and against k = sqrt(c)*I, real and complex,
    # dims 1-8; the last rows scale s and k by 10^e, e in [-6, 6], so the
    # reference k k* spans twenty-four decades
    rng = np.random.default_rng(5)
    for trial in range(700):
        n = int(rng.integers(1, 9))
        complex_ = bool(rng.integers(0, 2))
        s = random_psd(rng, n, complex_, rank=int(rng.integers(1, n + 1)))
        if rng.integers(0, 2):
            s = s + 0.05 * np.eye(n)
        if trial < 400 or trial >= 500:
            k = random_matrix(rng, n, int(rng.integers(1, n + 1)), complex_)
        else:
            k = 10.0 ** rng.uniform(-6.0, 6.0) * np.eye(n, dtype=s.dtype)
        if trial >= 500:
            s = 10.0 ** int(rng.integers(-6, 7)) * s
            k = 10.0 ** int(rng.integers(-6, 7)) * k
        p = k @ k.conj().T
        res = linalg.max_psd_shift(linalg.hermitian_eigen(s), k)
        expected = bisection_shift(s, p)
        assert (res.amount is None) == (expected is None)
        if expected is not None:
            assert res.amount == pytest.approx(expected, rel=1e-9)
        a = res.amount or 0.0
        w = res.witness
        residual = np.vdot(w, (s - a * p) @ w)
        assert abs(residual) <= 1e-9 * np.linalg.norm(s, 2)


@pytest.mark.parametrize("b, mu", [(3e-5, 0.0), (3e-5, 9e-10), (1e-5, 1e-10), (1e-7, 0.0)])
def test_max_psd_shift_is_feasible_on_near_boundary_pencils(b, mu):
    # s is PSD at tolerance and couples range(k) by ~sqrt(tol) to a direction
    # at which s nearly vanishes; the reported shift must still leave s - a*p
    # PSD at tolerance (an exact pseudo-inverse of s22 reports a = 1 here,
    # which s - a*p violates by ~b)
    s = np.array([[1.0, b], [b, mu]])
    k = np.diag([1.0, 0.0])
    res = linalg.max_psd_shift(linalg.hermitian_eigen(s), k)
    assert res.amount is not None
    assert np.linalg.eigvalsh(s - res.amount * k @ k.T).min() >= -1e-9


def test_max_psd_shift_drops_an_unseen_direction_floored_to_zero():
    # lambda_min = -cutoff floors to exactly 0; k* does not see that direction
    res = linalg.max_psd_shift(linalg.hermitian_eigen(np.diag([1.0, -1e-9])), np.diag([1.0, 0.0]))
    assert res.amount == 1.0
    assert np.array_equal(res.witness, [1.0, 0.0])


def test_max_psd_shift_has_no_shift_on_a_seen_direction_floored_to_zero():
    # k* sees e2 by 1e-6, inside the range test's band, but any a > 0 takes
    # s - a*k k* below -cutoff along e2
    res = linalg.max_psd_shift(linalg.hermitian_eigen(np.diag([1.0, -1e-9])),
                               np.array([[1.0, 0.0], [1e-6, 0.0]]))
    assert res.amount is None
    assert np.array_equal(res.witness, [0.0, 1.0])


def _near_boundary_pencil(n: int, r: int, complex_: bool, seed: int):
    """A PSD-at-tolerance ``s`` with eigenvalues in ``[-cutoff, cutoff]`` on
    some directions, and a factor ``k`` coupled to those by 1e-8 to 1e-3."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(random_matrix(rng, n, n, complex_))[0]
    lam = np.r_[1.0, rng.uniform(0.1, 1.0, size=n - 1)]  # max|lambda| = 1
    near = np.r_[False, rng.random(n - 1) < 0.5]
    lam[near] = rng.uniform(-1.0, 1.0, size=int(near.sum())) * linalg.DEFAULT_TOL
    s = (q * lam) @ q.conj().T
    w = random_matrix(rng, n, r, complex_)
    w[near] *= 10.0 ** rng.uniform(-8.0, -3.0, size=(int(near.sum()), 1))
    return (s + s.conj().T) / 2.0, q @ w


@settings(max_examples=200, deadline=None)
@given(st.builds(_near_boundary_pencil, n=st.integers(1, 8), r=st.integers(1, 8),
                 complex_=st.booleans(), seed=st.integers(0, 2**32 - 1)))
def test_max_psd_shift_keeps_the_pencil_psd_at_tolerance(pencil):
    # the floor lifts each eigenvalue of s by at most the cutoff, so the
    # shift it reports leaves s - a*k k* >= -cutoff * I, up to round-off
    s, k = pencil
    res = linalg.max_psd_shift(linalg.hermitian_eigen(s), k)
    if res.amount is None:
        return
    spectrum = np.linalg.eigvalsh(s)
    norm = float(np.abs(spectrum).max())
    bottom = np.linalg.eigvalsh(s - res.amount * k @ k.conj().T).min()
    assert bottom >= -linalg.DEFAULT_TOL * norm - 8 * s.shape[0] * np.finfo(float).eps * norm


@pytest.mark.parametrize("a", [np.eye(3), np.eye(3, dtype=complex)])
def test_as_matrix_shares_no_memory_with_its_input(a):
    assert not np.shares_memory(linalg.as_matrix(a), a)
    assert not np.shares_memory(linalg.as_vector(a[0]), a)


def test_as_matrix_takes_a_read_only_array_that_owns_its_memory_as_is():
    frozen = np.eye(3)
    frozen.flags.writeable = False
    assert linalg.as_matrix(frozen) is frozen
    # a read-only view may change through its writable base, and an integer
    # array is converted: both are copied
    base = np.eye(3)
    view = base[:]
    view.flags.writeable = False
    ints = np.eye(3, dtype=int)
    ints.flags.writeable = False
    for a in (view, ints):
        assert not np.shares_memory(linalg.as_matrix(a), a)
    with pytest.raises(ValueError):
        frozen_nan = np.array([[np.nan]])
        frozen_nan.flags.writeable = False
        linalg.as_matrix(frozen_nan)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_vector_checks_dimension():
    with pytest.raises(errors.DimensionMismatchError):
        linalg.as_vector([1.0, 2.0, 3.0], dim=2)
