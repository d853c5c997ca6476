"""Dense Hermitian kernel: eigensolver, pseudo-inverse, pencil shift."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biframekit import errors, linalg
from helpers import bisection_shift, random_psd


# ---------------------------------------------------------------------------
# hypothesis strategies


def _hermitian(dim: int, complex_: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    if complex_:
        a = a + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


hermitian_matrices = st.builds(
    _hermitian,
    dim=st.integers(1, 8),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


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


@settings(max_examples=120, deadline=None)
@given(hermitian_matrices)
def test_eigen_matches_lapack(h):
    eig = linalg.hermitian_eigen(h)
    ref = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.allclose(eig.values, ref, atol=1e-10 * scale)


@settings(max_examples=80, deadline=None)
@given(hermitian_matrices)
def test_eigen_vectors_are_orthonormal_eigenvectors(h):
    eig = linalg.hermitian_eigen(h)
    n = h.shape[0]
    v = eig.vectors
    scale = max(1.0, float(np.abs(eig.values).max()))
    assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-12 * n)
    assert np.linalg.norm(h @ v - v * eig.values) <= 1e-9 * scale


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
    root = linalg.sqrt_psd(gram)
    assert np.allclose(root, root.conj().T, atol=1e-12 * max(1, np.linalg.norm(gram)))
    assert np.allclose(root @ root, gram, atol=1e-8 * max(1.0, float(np.linalg.norm(gram))))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(errors.NotPSDError):
        linalg.sqrt_psd(np.diag([1.0, -1.0]))


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
    basis = linalg.orthonormal_range(a)
    null = linalg.orthonormal_nullspace(a)
    assert basis.shape == (3, 1)
    assert null.shape == (3, 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(1), atol=1e-12)
    assert np.allclose(null.conj().T @ null, np.eye(2), atol=1e-12)
    # range basis reproduces the columns, nullspace is annihilated
    assert np.allclose(basis @ (basis.conj().T @ a), a, atol=1e-12)
    assert np.allclose(a @ null, 0.0, atol=1e-12)


def test_spectral_norm_golden_ratio():
    value = linalg.spectral_norm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert value == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_invert_rejects_singular():
    with pytest.raises(errors.SingularOperatorError):
        linalg.invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    inv = linalg.invert(np.array([[2.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(inv, np.diag([0.5, 0.25]))


# ---------------------------------------------------------------------------
# hermitian part / asymmetry / canonical sign


def test_hermitian_part_and_asymmetry_decompose():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    h = linalg.hermitian_part(a)
    skew = linalg.asymmetry(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 3.0]])
    assert skew == pytest.approx(np.linalg.norm(a - a.T, 2) / np.linalg.norm(a, 2))


def test_canonical_sign_fixes_phase():
    v = linalg.canonical_sign(np.array([-0.6, 0.8]))
    assert v[0] > 0
    w = linalg.canonical_sign(np.array([1j, 0.0], dtype=complex))
    assert w[0].real > 0 and abs(w[0].imag) < 1e-15


# ---------------------------------------------------------------------------
# max_psd_shift (the pencil engine behind every lower bound)


@pytest.mark.parametrize(
    "s, p, expected",
    [
        (np.diag([5.0, 7.0, 11.0]), 4.0 * np.eye(3), 1.25),
        (np.diag([4.0, 3.0, 2.0]), np.eye(3), 2.0),
        (np.diag([2.0, 1.0]), np.diag([1.0, 0.0]), 2.0),
        # s vanishes only on null(p)
        (np.diag([2.0, 0.0]), np.diag([1.0, 0.0]), 2.0),
        # the Schur complement 2 - 1*1/1 couples range(p) to null(p)
        (np.array([[2.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 0.0]), 1.0),
        (np.array([[2.0, 1j], [-1j, 1.0]]), np.diag([1.0, 0.0]), 1.0),
    ],
)
def test_max_psd_shift_golden(s, p, expected):
    res = linalg.max_psd_shift(s, p)
    assert res.amount == pytest.approx(expected, abs=1e-9)
    assert not res.degenerate


def test_max_psd_shift_witness_is_tight_direction():
    res = linalg.max_psd_shift(np.diag([5.0, 7.0, 11.0]), 4.0 * np.eye(3))
    assert np.abs(res.witness) == pytest.approx([1.0, 0.0, 0.0], abs=1e-8)


def test_max_psd_shift_indefinite_s_has_no_shift():
    res = linalg.max_psd_shift(np.diag([1.0, -1.0]), np.eye(2))
    assert res.amount is None
    assert np.abs(res.witness) == pytest.approx([0.0, 1.0], abs=1e-10)


def test_max_psd_shift_zero_reference_is_degenerate():
    res = linalg.max_psd_shift(np.eye(2), np.zeros((2, 2)))
    assert res.degenerate
    assert res.amount == math.inf
    # ... unless s itself fails PSD
    res2 = linalg.max_psd_shift(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    assert res2.degenerate and res2.amount is None


def test_max_psd_shift_zero_s_gives_none():
    res = linalg.max_psd_shift(np.zeros((2, 2)), np.eye(2))
    assert res.amount is None


def test_max_psd_shift_rejects_non_psd_reference():
    with pytest.raises(errors.NotPSDError):
        linalg.max_psd_shift(np.eye(2), np.diag([1.0, -1.0]))


def test_max_psd_shift_shape_mismatch():
    with pytest.raises(errors.DimensionMismatchError):
        linalg.max_psd_shift(np.eye(2), np.eye(3))


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
        res = linalg.max_psd_shift(s, p)
        assert res.amount is not None and res.amount > 0
        scale = max(1.0, np.linalg.norm(s, 2))
        feasible = np.linalg.eigvalsh(s - res.amount * p).min()
        assert feasible >= -1e-7 * scale
        pushed = np.linalg.eigvalsh(s - 1.05 * res.amount * p).min()
        assert pushed < 1e-9 * scale


def test_max_psd_shift_matches_bisection_oracle():
    # PSD s of every rank, with and without a definite cushion, against p of
    # every rank, real and complex, dims 1-8
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        complex_ = bool(rng.integers(0, 2))
        s = random_psd(rng, n, complex_, rank=int(rng.integers(1, n + 1)))
        if rng.integers(0, 2):
            s = s + 0.05 * np.eye(n)
        p = random_psd(rng, n, complex_, rank=int(rng.integers(1, n + 1)))
        res = linalg.max_psd_shift(s, p)
        expected = bisection_shift(s, p)
        assert (res.amount is None) == (expected is None)
        if expected is not None:
            assert res.amount == pytest.approx(expected, rel=1e-9)
        a = res.amount or 0.0
        w = res.witness
        residual = np.vdot(w, (s - a * p) @ w)
        assert abs(residual) <= 1e-9 * max(1.0, np.linalg.norm(s, 2))


@pytest.mark.parametrize("b, mu", [(3e-5, 0.0), (3e-5, 9e-10), (1e-5, 1e-10), (1e-7, 0.0)])
def test_max_psd_shift_is_feasible_on_near_boundary_pencils(b, mu):
    # s is PSD at tolerance and couples range(p) by ~sqrt(tol) to a direction
    # at which s nearly vanishes; the reported shift must still leave s - a*p
    # PSD at tolerance (an exact pseudo-inverse of s22 reports a = 1 here,
    # which s - a*p violates by ~b)
    s = np.array([[1.0, b], [b, mu]])
    p = np.diag([1.0, 0.0])
    res = linalg.max_psd_shift(s, p)
    assert res.amount is not None
    assert np.linalg.eigvalsh(s - res.amount * p).min() >= -1e-9


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_vector_checks_dimension():
    with pytest.raises(errors.DimensionMismatchError):
        linalg.as_vector([1.0, 2.0, 3.0], dim=2)
