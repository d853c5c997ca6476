"""Dense linear-algebra kernel used by the rest of the toolkit.

Everything here operates on plain ``numpy`` matrices of modest size (a few
hundred rows at most).  The Hermitian eigensolver is a cyclic Jacobi
iteration: at these dimensions it is plenty fast, it is accurate to a few
ulps for the symmetric eigenproblem, and it gives us eigenvectors we fully
control (deterministic ordering and sign).  Singular-value based helpers
(pseudo-inverse, spectral norm, range/null bases) sit on ``numpy.linalg.svd``
with explicit rank thresholding.

The central routine is :func:`max_psd_shift`, which computes the largest
``a >= 0`` with ``s - a*p`` positive semidefinite.  That quantity is the
optimal lower bound of every sampled system in this package; it is solved in
closed form (a Schur complement on ``null(p)`` and one whitened eigensolve),
and its contract (tolerance semantics, witness vector) is spelled out in
detail below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    SingularOperatorError,
)

#: Default tolerance for verdict-style checks (PSD tests, Hermitian tests,
#: bound verification).  Routines multiply it by ``max(1, norm)`` of the
#: matrix under test; for PSD verdicts that is :meth:`EigenDecomposition.cutoff`.
DEFAULT_TOL = 1e-9

#: Default relative cutoff separating "zero" from "nonzero" singular values.
RANK_TOL = 1e-10

_MAX_JACOBI_SWEEPS = 60


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate ``a`` as a 2-D matrix with finite entries and return a copy.

    Real input comes back as ``float64``, complex input as ``complex128``.
    """
    arr = np.array(a, copy=True)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionMismatchError("empty matrices are not supported")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate ``v`` as a finite 1-D vector (optionally of length ``dim``)."""
    arr = np.array(v, copy=True)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got ndim={arr.ndim}")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected a vector of length {dim}, got {arr.shape[0]}")
    return arr


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def hermitian_part(a) -> np.ndarray:
    """Hermitian part ``(a + a*) / 2`` of a square matrix."""
    m = as_matrix(a, square=True)
    return (m + adjoint(m)) / 2.0


def asymmetry(a) -> float:
    """Relative self-adjointness defect ``||a - a*|| / ||a||`` (spectral norms).

    Returns 0.0 for the zero matrix.  Used as a diagnostic everywhere a
    frame operator is implicitly assumed self-adjoint.
    """
    m = as_matrix(a, square=True)
    denom = spectral_norm(m)
    if denom == 0.0:
        return 0.0
    return spectral_norm(m - adjoint(m)) / denom


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Normalise the phase of ``v``: the first nonzero entry is made real
    and positive.  Deterministic tie-breaking for witness vectors."""
    v = np.asarray(v)
    scale = np.max(np.abs(v)) if v.size else 0.0
    if scale == 0.0:
        return v.copy()
    idx = int(np.argmax(np.abs(v) > 1e-12 * scale))
    pivot = v[idx]
    if pivot == 0:  # pragma: no cover - argmax guarantees a nonzero pivot
        return v.copy()
    factor = np.conj(pivot) / abs(pivot)
    out = v * factor
    if not np.iscomplexobj(v):
        out = out.real
    return out


def unit_vector(v: np.ndarray) -> np.ndarray:
    """Scale ``v`` to unit norm and canonical sign."""
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalise the zero vector")
    return canonical_sign(v / nrm)


def _require_hermitian(a: np.ndarray, tol: float, what: str = "matrix") -> np.ndarray:
    defect = np.linalg.norm(a - adjoint(a))
    scale = max(1.0, float(np.linalg.norm(a)))
    if defect > tol * scale:
        raise NotHermitianError(
            f"{what} is not Hermitian: ||a - a*|| = {defect:.3e} exceeds {tol:.1e} * max(1, ||a||)"
        )
    return (a + adjoint(a)) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])

    def cutoff(self, tol: float) -> float:
        """Eigenvalues within this distance of zero count as zero:
        ``tol * max(1, max|lambda|)``, the one tolerance rule of every PSD
        verdict in the package."""
        return tol * max(1.0, float(np.max(np.abs(self.values))))

    def is_psd(self, tol: float) -> bool:
        """Whether the matrix is positive semidefinite at tolerance."""
        return self.min >= -self.cutoff(tol)


def hermitian_eigen(a, tol: float | None = None) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi.

    Parameters
    ----------
    a
        Square matrix with ``||a - a*|| <= tol * max(1, ||a||)``.
    tol
        Hermitian-defect tolerance; defaults to :data:`DEFAULT_TOL`.

    Returns
    -------
    EigenDecomposition
        Eigenvalues in ascending order; eigenvector columns are orthonormal,
        each with its first nonzero entry made real positive.

    Raises
    ------
    NotHermitianError
        If the input fails the Hermitian check.
    ConvergenceError
        If the sweep budget is exhausted (does not happen for finite input;
        Jacobi converges quadratically once sweeps start annihilating
        off-diagonal mass).
    """
    if tol is None:
        tol = DEFAULT_TOL
    m = as_matrix(a, square=True)
    m = _require_hermitian(m, tol)
    n = m.shape[0]
    complex_input = np.iscomplexobj(m)
    vecs = np.eye(n, dtype=m.dtype)

    if n > 1:
        fro = float(np.linalg.norm(m))
        stop = max(fro, 1.0) * 1e-15

        def _off_norm() -> float:
            # Directly over the off-diagonal entries: the algebraically
            # equivalent sqrt(||m||^2 - ||diag||^2) cancels catastrophically
            # near convergence and can report phantom mass ~sqrt(eps)*||m||.
            stripped = m - np.diag(np.diagonal(m))
            return float(np.linalg.norm(stripped))

        for _sweep in range(_MAX_JACOBI_SWEEPS):
            if _off_norm() <= stop:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    beta = abs(m[p, q])
                    if beta <= stop / n:
                        continue
                    phase = m[p, q] / beta
                    tau = (m[q, q].real - m[p, p].real) / (2.0 * beta)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.hypot(1.0, tau))
                    else:
                        t = -1.0 / (-tau + math.hypot(1.0, tau))
                    c = 1.0 / math.hypot(1.0, t)
                    s = t * c
                    # Columns: m <- m J with the plane rotation
                    # J = [[c, s*phase], [-s*conj(phase), c]] on (p, q).
                    cp = m[:, p].copy()
                    cq = m[:, q].copy()
                    m[:, p] = c * cp - s * np.conj(phase) * cq
                    m[:, q] = s * phase * cp + c * cq
                    # Rows: m <- J* m.
                    rp = m[p, :].copy()
                    rq = m[q, :].copy()
                    m[p, :] = c * rp - s * phase * rq
                    m[q, :] = s * np.conj(phase) * rp + c * rq
                    m[p, q] = 0.0
                    m[q, p] = 0.0
                    vp = vecs[:, p].copy()
                    vq = vecs[:, q].copy()
                    vecs[:, p] = c * vp - s * np.conj(phase) * vq
                    vecs[:, q] = s * phase * vp + c * vq
        else:
            if _off_norm() > stop:
                raise ConvergenceError("Jacobi iteration did not converge")

    values = np.real(np.diagonal(m)).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    for j in range(n):
        vecs[:, j] = canonical_sign(vecs[:, j])
    if complex_input:
        vecs = vecs.astype(np.complex128)
    return EigenDecomposition(values=values, vectors=vecs)


def min_eigenpair(a, tol: float | None = None) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian matrix with its unit eigenvector."""
    eig = hermitian_eigen(a, tol=tol)
    return eig.min, eig.vectors[:, 0].copy()


def is_psd(a, tol: float | None = None) -> bool:
    """Whether a Hermitian matrix is positive semidefinite at tolerance.

    True iff ``lambda_min(a) >= -tol * max(1, ||a||)``.  Use
    :func:`min_eigenpair` when the failing direction is needed.
    """
    if tol is None:
        tol = DEFAULT_TOL
    return hermitian_eigen(a, tol=tol).is_psd(tol)


def sqrt_psd(a, tol: float | None = None) -> np.ndarray:
    """Positive-semidefinite square root of a PSD matrix.

    Eigenvalues below the PSD tolerance are clamped to zero, so mild
    round-off on the input does not leak into the result.  Raises
    :class:`NotPSDError` for genuinely indefinite input.
    """
    if tol is None:
        tol = DEFAULT_TOL
    eig = hermitian_eigen(a, tol=tol)
    cutoff = eig.cutoff(tol)
    if not eig.is_psd(tol):
        raise NotPSDError(f"matrix has eigenvalue {eig.min:.6e} < -{cutoff:.3e}")
    # clamp at the tolerance, not at zero: a +1e-16 round-off eigenvalue
    # would otherwise surface as a 1e-8 singular value of the root, well
    # above any rank cutoff downstream consumers can reasonably use
    clamped = np.where(eig.values <= cutoff, 0.0, eig.values)
    root = (eig.vectors * np.sqrt(clamped)) @ adjoint(eig.vectors)
    return (root + adjoint(root)) / 2.0


def pseudo_inverse(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with explicit rank thresholding.

    Singular values below ``rank_tol * sigma_max`` are treated as exact
    zeros.  The zero matrix maps to the (transposed) zero matrix.
    """
    m = as_matrix(a)
    u, sigma, vh = np.linalg.svd(m, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    cutoff = rank_tol * sigma[0]
    inv = np.zeros_like(sigma)
    keep = sigma > cutoff
    inv[keep] = 1.0 / sigma[keep]
    return adjoint(vh) @ (inv[:, None] * adjoint(u))


def spectral_norm(a) -> float:
    """Largest singular value."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def operator_rank(a, rank_tol: float = RANK_TOL) -> int:
    """Numerical rank at the package-wide singular-value cutoff."""
    sigma = np.linalg.svd(as_matrix(a), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rank_tol * sigma[0]))


def orthonormal_range(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, as matrix columns.

    Rank-0 input yields a ``(m, 0)`` matrix.
    """
    m = as_matrix(a)
    u, sigma, _ = np.linalg.svd(m, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return u[:, :0]
    return u[:, sigma > rank_tol * sigma[0]]


def orthonormal_nullspace(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel, as matrix columns."""
    m = as_matrix(a)
    _, sigma, vh = np.linalg.svd(m, full_matrices=True)
    if sigma.size == 0 or sigma[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(sigma > rank_tol * sigma[0]))
    return adjoint(vh)[:, rank:]


def invert(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Inverse of a square matrix; :class:`SingularOperatorError` when the
    smallest singular value sits below ``rank_tol * sigma_max``."""
    m = as_matrix(a, square=True)
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma[0] == 0.0 or sigma[-1] <= rank_tol * sigma[0]:
        raise SingularOperatorError(
            f"matrix is singular at rank tolerance {rank_tol:.1e} (sigma_min={sigma[-1]:.3e})"
        )
    return np.linalg.inv(m)


@dataclass(frozen=True, eq=False)
class ShiftResult:
    """Outcome of :func:`max_psd_shift`.

    Attributes
    ----------
    amount:
        The supremum shift, ``math.inf`` in the degenerate case, or ``None``
        when no shift above tolerance exists.
    witness:
        Unit vector along which the pencil is tight (or which certifies that
        no positive shift exists); ``None`` in the degenerate case.
    degenerate:
        True when the reference matrix ``p`` vanished, making the shift
        unconstrained.
    """

    amount: float | None
    witness: np.ndarray | None
    degenerate: bool = False


def max_psd_shift(s, p, tol: float | None = None) -> ShiftResult:
    """Largest ``a >= 0`` such that ``s - a*p`` stays positive semidefinite.

    ``s`` and ``p`` must be Hermitian and ``p`` PSD.  Semidefiniteness of the
    inputs is tested at tolerance (:meth:`EigenDecomposition.is_psd`).

    Once ``s`` is PSD the pencil has a closed form (the symmetric-definite
    problem of Golub & Van Loan, *Matrix Computations*, section 8.7).  Split
    the space into ``range(p)`` (basis ``Q1``, eigenvalues ``Lambda``) and
    ``null(p)`` (basis ``Q2``) at p's own cutoff.  ``s - a*p`` is PSD iff the
    Schur complement ``C = s11 - s12 s22^+ s21`` dominates ``a*Lambda`` (``s``
    PSD makes ``s22`` PSD with ``range(s21)`` inside ``range(s22)``), so the
    supremum is ``lambda_min(Lambda^{-1/2} C Lambda^{-1/2})``.  Its bottom
    eigenvector ``y`` lifts to the tight direction
    ``Q1 x1 - Q2 s22^+ s21 x1`` with ``x1 = Lambda^{-1/2} y``.

    ``s22^+`` inverts the eigenvalues of ``s22`` floored at its cutoff, so
    ``C`` is the exact Schur complement of a matrix within tolerance of ``s``.
    A zero eigenvalue cannot simply be dropped: an ``s`` that is PSD only at
    tolerance may couple ``range(p)`` to it by ``sqrt(tol)``, and dropping
    that coupling reports a shift that ``s - a*p`` violates by as much.

    Returns
    -------
    ShiftResult
        ``amount=None`` when no shift above ``tol`` exists (e.g. ``s``
        indefinite, or ``s`` vanishing on a direction that ``p`` sees);
        ``amount=math.inf`` flagged ``degenerate`` when ``p = 0`` and ``s``
        is PSD.
    """
    if tol is None:
        tol = DEFAULT_TOL
    s_m = as_matrix(s, square=True)
    p_m = as_matrix(p, square=True)
    if s_m.shape != p_m.shape:
        raise DimensionMismatchError(f"shape mismatch: {s_m.shape} vs {p_m.shape}")
    s_m = _require_hermitian(s_m, tol, "shift target")
    p_m = _require_hermitian(p_m, tol, "reference matrix")

    s_eig = hermitian_eigen(s_m, tol=tol)
    p_eig = hermitian_eigen(p_m, tol=tol)
    if not p_eig.is_psd(tol):
        raise NotPSDError(f"reference matrix has eigenvalue {p_eig.min:.6e} < 0")

    s_is_psd = s_eig.is_psd(tol)

    if p_eig.max <= p_eig.cutoff(tol):
        # p vanishes: the shift is unconstrained whenever s itself is PSD.
        if s_is_psd:
            return ShiftResult(amount=math.inf, witness=None, degenerate=True)
        return ShiftResult(amount=None, witness=s_eig.vectors[:, 0].copy(), degenerate=True)

    if not s_is_psd:
        # Even a = 0 fails; the bottom eigenvector certifies it.
        return ShiftResult(amount=None, witness=s_eig.vectors[:, 0].copy())

    seen = p_eig.values > p_eig.cutoff(tol)
    q1, q2 = p_eig.vectors[:, seen], p_eig.vectors[:, ~seen]
    inv_root = 1.0 / np.sqrt(p_eig.values[seen])
    s21 = adjoint(q2) @ s_m @ q1
    coupling = np.zeros_like(s21)  # s22^+ s21
    if q2.shape[1]:
        s22_eig = hermitian_eigen(adjoint(q2) @ s_m @ q2, tol=tol)
        floored = np.maximum(s22_eig.values, s22_eig.cutoff(tol))
        w = s22_eig.vectors
        coupling = (w / floored) @ (adjoint(w) @ s21)
    schur = adjoint(q1) @ s_m @ q1 - adjoint(s21) @ coupling
    pencil = hermitian_eigen(inv_root[:, None] * schur * inv_root, tol=tol)
    x1 = inv_root * pencil.vectors[:, 0]
    witness = unit_vector(q1 @ x1 - q2 @ (coupling @ x1))
    # s passed the PSD gate, so a negative bottom is round-off of an exact zero
    amount = max(pencil.min, 0.0)

    if amount <= tol:
        return ShiftResult(amount=None, witness=witness)
    return ShiftResult(amount=amount, witness=witness)
