"""Dense linear-algebra kernel used by the rest of the toolkit.

Everything here operates on plain ``numpy`` matrices of modest size (a few
hundred rows at most).  The Hermitian eigensolver is a cyclic Jacobi
iteration: it is accurate to a few ulps for the symmetric eigenproblem and
gives us eigenvectors we fully control (deterministic ordering and sign),
but its loop is pure Python and dominates the package's run time, so
eigensolves are not spent twice, nor where an SVD answers.
:func:`hermitian_eigen` is the one door from a matrix to a spectrum:
:func:`max_psd_shift` and :func:`sqrt_psd` take the
:class:`EigenDecomposition` itself, never the matrix, and one cache per set
of samples holds the spectrum of ``Herm(S)`` that its systems hand them.
``Herm(S)`` is decomposed once, however many bounds, checks and quotients
read it, under however many targets; the only other matrix decomposed is a
positive perturbation's ``T``.
Singular-value based helpers (pseudo-inverse, spectral norm, rank,
range/null bases, :func:`invert`) sit on ``numpy.linalg.svd`` with explicit
rank thresholding, and they are the one door to an SVD: no other code in
the package, :func:`max_psd_shift` and ``quotient.quotient_norm``
included, calls LAPACK's SVD itself, so a tracer that wraps these helpers
counts every SVD the package runs.  The basis helpers and :func:`invert`
hand back the singular values they decide by, and
:func:`orthonormal_nullspace` the kernel's complement too, so a caller
needs no second SVD for a norm or a pseudo-inverse.

Every verdict in the package has one tolerance rule: a quantity counts as
zero when it is at most ``tol`` times a norm of the problem the verdict is
about, with no absolute floor, so scaling a problem leaves its verdicts
unchanged, and every verdict a call takes decides at the caller's ``tol``.
PSD tests use ``max|lambda|`` (:meth:`EigenDecomposition.cutoff`), rank,
range and invertibility decisions ``sigma_max`` (only :func:`pseudo_inverse`
and :func:`operator_rank`, which no package function calls, take no ``tol``
and cut at :data:`DEFAULT_TOL`), every equality verdict
``||a||_F``, as ``relative_gap(a, b) <= tol`` (:func:`relative_gap`), and
bound claims the optimal bound they are compared with: a claimed pair holds
iff ``lower <= lower_opt + tol * lower_opt`` and
``upper >= upper_opt - tol * |upper_opt|`` (``check_bounds``, the CLI's
``construct`` dominance and the tensor product law all decide by it).

Every value that can leave float64 has one range rule beside it: it is
formed on operands divided by powers of two (:func:`_binary_normalised`),
where nothing over- or underflows, and scaled back once by :func:`_ldexp`
(a constant scaled by squared norms by :func:`_rescaled`, which ends in
it).  A value float64 cannot hold raises ``OverflowError`` naming it, never
an ``inf``, a false 0 or a ``RuntimeWarning``.  Every product of samples,
weights and targets takes one power of two per row, because one row (a
node's samples or weight) may lie far below another, and each nonzero row
must fit: :func:`_product` forms mapped families and composed targets so,
:func:`_kron` Kronecker products (deciding most rows from their exponents
alone, and only the rows at the edge of the range by :func:`_ldexp`;
:func:`_kron_split` decides a product without forming it), and
``biframe.frame_operator`` and ``biframe.biframe_form`` sum node terms so.
Dividing by a power of two is exact where the quotient is normal, so a
result is the plain arithmetic's bit for bit wherever the plain
arithmetic, and the same arithmetic on the quotients, keep every entry
normal.  An entry more than ``2^1022`` below
the top of its own row (or of the array, for one power of two), or a node
term that far below the largest, turns subnormal and loses bits; one more
than ``2^1074`` below flushes to 0, as it would in float64 at that scale.
``S``, mapped samples and targets, Kronecker products, ``c K K*``
(``biframe.gram_target``), eigenvalues, the form, the lower constant, the
transfer ratio, ``||T||^n`` and every construction rule's constants are
formed so.

The central routine is :func:`max_psd_shift`, which computes the largest
``a >= 0`` with ``s - a*k k*`` positive semidefinite.  That quantity is the
optimal lower bound of every sampled system in this package; it is the
quotient constant ``1 / ||[k* / s^{1/2}]||^2``, read off the SVD of ``k``
whitened in the eigenbasis of ``s`` (one to three SVDs, all through the
helpers above), and its contract (tolerance semantics, witness vector) is
spelled out in detail below.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    SingularOperatorError,
)

#: The default of every ``tol``: a verdict compares against its caller's
#: ``tol`` times a norm of its problem, as the module docstring lists.
DEFAULT_TOL = 1e-9

_MAX_JACOBI_SWEEPS = 60


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate ``a`` as a 2-D matrix with finite entries and return a copy.

    Real input comes back as ``float64``, complex input as ``complex128``.
    A read-only array of that type which owns its memory comes back as
    itself: nothing writes to it, as nothing writes to a system's samples,
    so a copy would only repeat it.
    """
    arr = _matrix(a, square)
    if arr is a and not a.flags.writeable and a.flags.owndata:
        return arr
    return arr.copy(order="K")


def _matrix(a, square: bool = False) -> np.ndarray:
    """``a`` validated and typed as :func:`as_matrix` does, with no copy where
    it is a ``float64`` or ``complex128`` array already: the input of a
    helper that only reads it, as the SVD helpers and :func:`max_psd_shift`
    read theirs."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionMismatchError("empty matrices are not supported")
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate ``v`` as a finite 1-D vector (optionally of length ``dim``)."""
    arr = np.asarray(v)
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
    """Hermitian part ``(a + a*) / 2`` of a square matrix, halved before the
    sum so that it stays finite wherever ``a`` is."""
    m = _matrix(a, square=True)
    return m / 2.0 + adjoint(m) / 2.0


def asymmetry(a) -> float:
    """Relative self-adjointness defect ``||a - a*|| / ||a||`` (spectral norms).

    Returns 0.0 for the zero matrix.  Used as a diagnostic everywhere a
    frame operator is implicitly assumed self-adjoint.  Both norms are taken
    on ``a / 2^e`` (:func:`_binary_normalised`), so ``a - a*`` cannot
    overflow, and in range the ratio is the plain one bit for bit.
    """
    m, _ = _binary_normalised(_matrix(a, square=True))
    denom = spectral_norm(m)
    if denom == 0.0:
        return 0.0
    return spectral_norm(m - adjoint(m)) / denom


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Normalise the phase of a vector, or of each column of a matrix: the
    first entry above ``1e-12`` times the largest modulus is set to its
    modulus, exactly, and the rest are turned by the same unit factor.  So a
    second pass changes nothing, and a real result is the one a sign flip
    gives.  Deterministic tie-breaking for witnesses and eigenvectors."""
    v = np.asarray(v)
    if not v.size:
        return v.copy()
    if v.ndim == 1:  # the same arithmetic on numpy scalars: the same bits, fewer passes
        mags = np.abs(v)
        i = int(np.argmax(mags > 1e-12 * mags.max()))
        pivot, size = v[i], mags[i]
        out = v * (1.0 if pivot == size else np.conj(pivot) / size) + 0.0
        out[i] = size
        return out
    cols = v.reshape(v.shape[0], -1)
    mags = np.abs(cols)
    pick = (np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0), np.arange(cols.shape[1]))
    pivot, size = cols[pick], mags[pick]
    # exactly 1 where the pivot is its modulus already (a zero column too):
    # numpy's complex p / |p| may miss 1 by an ulp
    factor = np.where(pivot == size, 1.0, np.conj(pivot) / np.where(size, size, 1.0))
    out = cols * factor + 0.0  # + 0.0 turns the -0.0 a negative factor leaves into 0.0
    out[pick] = size
    return out.reshape(v.shape)


def unit_vector(v: np.ndarray) -> np.ndarray:
    """Scale ``v`` to unit norm and canonical sign.  The norm is taken on
    ``v / 2^e`` (:func:`_binary_normalised`), so it neither over- nor
    underflows at any scale, and in range the result is the plain one bit
    for bit."""
    unit, _ = _binary_normalised(np.asarray(v))
    nrm = float(np.linalg.norm(unit))
    if nrm == 0.0:
        raise ValueError("cannot normalise the zero vector")
    return canonical_sign(unit / nrm)


def _top(a: np.ndarray, rows: bool = False):
    """The largest real or imaginary part of ``a`` in modulus (the parts, not
    the moduli, which may overflow): one float, or with ``rows`` an array
    holding one per row (first axis; 0 for an empty row).  A complex
    array's parts are read as a trailing axis, so one pass takes them all."""
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a).view(np.float64).reshape(a.shape + (2,))
    parts = np.abs(a)
    return parts.max(axis=tuple(range(1, parts.ndim)), initial=0.0) if rows else float(parts.max())


def _binary_normalised(a: np.ndarray, rows: bool = False) -> tuple[np.ndarray, int | np.ndarray]:
    """``(a / 2^e, e)``, where ``2^e`` is the largest power of two at most
    :func:`_top` of ``a``; with ``rows``, each row (first axis) is divided by
    its own such power, and ``e`` holds one exponent per row (``-1`` for a
    zero row).  The largest part of ``a / 2^e`` (of each row) lies in
    ``[1, 2)``, so its norms neither over- nor underflow, and the division
    is exact wherever the quotient stays normal: arithmetic on ``a / 2^e``
    is the arithmetic on ``a``, scaled, bit for bit, wherever both keep every
    entry normal.  A part more than ``2^1022`` below its top (of the array,
    or of its row) turns subnormal and loses bits, and one more than
    ``2^1074`` below flushes to 0.  The rows, and a subnormal ``2^e``, are
    divided out by :func:`_shift`, part by part and unchecked (a quotient by
    its own top's power of two always fits): numpy's complex division by a
    subnormal would overflow on its reciprocal.
    """
    e = (np.frexp(_top(a, rows=True))[1] if rows else math.frexp(_top(a))[1]) - 1
    return (_shift(a, -e) if rows or e < sys.float_info.min_exp - 1 else a / math.ldexp(1.0, e)), e


def _product(*factors: np.ndarray, what: str) -> np.ndarray:
    """The matrix product of ``factors``, left to right: the one way the
    package maps samples and composes targets, with one power of two per
    row of the first factor (a row is a node's samples, or a row of a
    target).  That factor is split by row and the others whole
    (:func:`_binary_normalised`), and row ``i`` of the product of the
    quotients is scaled back once by ``r_i`` plus the others' exponents
    (:func:`_ldexp`).  So a row far below the others keeps its bits, and the
    result is the plain product bit for bit wherever the division, the
    products of the quotients and the plain arithmetic keep every entry
    normal.  A product any of whose nonzero rows float64 cannot hold, too
    large or rounding to 0, raises ``OverflowError`` naming ``what``, never
    an ``inf``, a false 0 or a ``RuntimeWarning``; an entry more than
    ``2^1074`` below its row's top still rounds to 0.
    """
    units, exps = zip(*(_binary_normalised(x, rows=not i) for i, x in enumerate(factors)))
    return _ldexp(functools.reduce(np.matmul, units), sum(exps), what)


def _kron(a: np.ndarray, b: np.ndarray, what: str, exp: int = 0) -> np.ndarray:
    """The Kronecker product of ``a`` and ``b`` (left factor major), times
    ``2^exp``: the one way the package forms tensor samples, weights,
    targets and frame operators.  Both factors are split by row, and row
    ``(i, j)`` of the product of the quotients is scaled back once by
    ``2^s``, ``s = r_i + r'_j + exp`` (:func:`_kron_split`, :func:`_shift`),
    with the same guarantees as :func:`_product`: the plain ``numpy.kron``
    bit for bit wherever the division and the plain products keep every
    entry normal, and ``OverflowError`` naming ``what`` for a nonzero row
    (so for a weight) that float64 cannot hold.  Two passes over the
    product, one to form it and one to scale it back."""
    a, b, exps = _kron_split(a, b, what, exp)
    return _shift(np.kron(a, b), exps)


def _kron_split(a: np.ndarray, b: np.ndarray, what: str,
                exp: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a / 2^r, b / 2^r', s)``: both factors split by row
    (:func:`_binary_normalised`), and the exponent ``s = r_i + r'_j + exp``
    of each row ``(i, j)`` of their Kronecker product, once the range rule
    of :func:`_kron` holds: a nonzero product row that float64 cannot hold
    raises ``OverflowError`` naming ``what``.  The product is not formed.

    The range is decided from the exponents.  The top part of a nonzero
    quotient row lies in ``[1, 2)``, so that of a product row of two lies in
    ``[1/2, 8)`` (a complex product's parts are at least its modulus over
    ``sqrt(2)``), and its scaled top in ``[2^(s-1), 2^(s+3))``.  A row whose
    bracket lies inside the float64 range fits; only the rows whose bracket
    reaches past it are formed, and decided, by :func:`_ldexp`.
    """
    (a, e), (b, f) = (_binary_normalised(np.asarray(x), rows=True) for x in (a, b))
    exps = np.add.outer(e, f).ravel() + exp
    # 2^(s-1) may round to 0 at s <= low, and 2^(s+3) overflow at s > high
    low, high = sys.float_info.min_exp - sys.float_info.mant_dig, sys.float_info.max_exp - 3
    if exps.size and (exps.min() <= low or exps.max() > high):
        edge = np.flatnonzero((exps <= low) | (exps > high))
        (i, j), (m, n) = np.divmod(edge, len(f)), (math.prod(x.shape[1:]) for x in (a, b))
        rows = a[i].reshape(len(edge), m, 1) * b[j].reshape(len(edge), 1, n)
        _ldexp(rows.reshape(len(edge), m * n), exps[edge], what)  # raises for a row float64 cannot hold
    return a, b, exps


def _rescaled(value: float, up=(), down=(), what: str = "a guaranteed constant") -> float:
    """``value * prod(up)^2 / prod(down)^2``: the one way a constant is scaled
    by squared norms.  Every factor is split by ``frexp``; the mantissas are
    multiplied, then divided, in order, and one ``ldexp`` applies the summed
    exponent.  Scaling by a power of two is exact, so wherever the plain
    product stays in range the result is the plain product bit for bit.  A
    subnormal result ships; a nonzero one that float64 cannot hold raises
    ``OverflowError`` naming ``what``, never a false 0 or ``inf``."""
    mant, exp = math.frexp(value)
    for x in up:
        m, e = math.frexp(x)
        mant, exp = mant * m * m, exp + 2 * e
    for x in down:
        m, e = math.frexp(x)
        mant, exp = mant / m / m, exp - 2 * e
    return _ldexp(mant, exp, what)


def _ldexp(value, exp, what: str):
    """``value * 2^exp`` for a real or complex number or array, ``exp`` an
    integer or an array of one per row (first axis): the one way a value
    formed on :func:`_binary_normalised` operands is scaled back.  It is
    exact wherever it is normal.  The :func:`_top` entry decides, or with
    one exponent per row, each row's top entry (a row is its own value, a
    node's samples or weight): if float64 cannot hold it, a nonzero value
    that would become 0 or ``inf``, this raises ``OverflowError`` naming
    ``what`` (a number "lies", an array's entries "lie" outside the float64
    range), never a false 0, ``inf`` or ``RuntimeWarning``.  A subnormal top
    entry ships, and the smaller entries round as IEEE does, to subnormals
    or 0.  A number comes back as a Python number, scaled by ``math.ldexp``
    part by part with no trip through numpy: the same bits as the array."""
    number = isinstance(value, (int, float, complex))
    if number:
        z = complex(value)
        top = max(abs(z.real), abs(z.imag))
    else:
        arr = np.asarray(value)
        if np.ndim(exp):  # inf past the largest binade; 0 only where exp < 0 can shrink a top
            tops = _top(arr, rows=True)
            if np.any((tops > 0.0) & ((np.frexp(tops)[1] + exp > sys.float_info.max_exp)
                                      | (np.ldexp(tops, np.minimum(exp, 0)) == 0.0))):
                raise OverflowError(f"{what} lie outside the float64 range")
            return _shift(arr, exp)
        top = _top(arr)
    fits = exp + math.frexp(top)[1] <= sys.float_info.max_exp  # else ldexp raises
    if top and (math.ldexp(top, exp) if fits else math.inf) in (0.0, math.inf):
        raise OverflowError(f"{what} {'lies' if number or not arr.ndim else 'lie'} "
                            "outside the float64 range")
    if number:
        if isinstance(value, complex):
            return complex(math.ldexp(z.real, exp), math.ldexp(z.imag, exp))
        return math.ldexp(value, exp)
    out = _shift(arr, exp)
    return out if arr.ndim else out.item()


def _at_top_scale(values, exps) -> np.ndarray:
    """``values * 2^(exps - max(exps))``: numbers formed on power-of-two
    quotients (:func:`_binary_normalised`), each with its own exponent,
    brought to the largest of their scales by :func:`_shift`, so they add
    and compare with no overflow.  Exact for the ones at that scale; one
    more than ``2^1074`` below it flushes to 0, as it would beside it."""
    return _shift(np.asarray(values, dtype=float), np.subtract(exps, max(exps)))


def _shift(value, exp) -> np.ndarray:
    """``value * 2^exp`` as an array, part by part, ``exp`` one integer or one
    per row (first axis), unchecked: each entry rounds as IEEE does.  For
    what cannot overflow, a division by a row's own power of two or a node
    weight scaled down to the largest node's scale; :func:`_ldexp` checks
    the rest."""
    arr, exp = np.asarray(value), np.asarray(exp, dtype=np.int32)  # numpy's fast ldexp loop
    exp = exp.reshape(exp.shape + (1,) * (arr.ndim - exp.ndim))
    out = np.empty(arr.shape, np.result_type(arr, 1.0))
    np.ldexp(arr.real, exp, out=out.real)
    if np.iscomplexobj(arr):
        np.ldexp(arr.imag, exp, out=out.imag)
    return out


def relative_gap(a, b) -> float:
    """``||a - b||_F / ||a||_F`` (0 when both vanish, ``inf`` when only ``a``
    does): every equality verdict is ``relative_gap(a, b) <= tol``.  Both
    norms are taken on the pair divided by one power of two, so neither
    over- nor underflows, and in range the ratio is the plain one bit for bit."""
    pair, _ = _binary_normalised(np.stack([np.asarray(a), np.asarray(b)]))
    top, gap = np.linalg.norm(pair[0]), np.linalg.norm(pair[0] - pair[1])
    return float(gap / top) if top else (math.inf if gap else 0.0)


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
        ``tol * max|lambda|``, the rule of every PSD verdict in the package."""
        return _cutoff(self.values, tol)

    def is_psd(self, tol: float) -> bool:
        """Whether the matrix is positive semidefinite at tolerance."""
        return self.min >= -self.cutoff(tol)


def _cutoff(values: np.ndarray, tol: float) -> float:
    """``tol * max|lambda|`` of ascending eigenvalues, read off their two ends."""
    return tol * max(abs(float(values[0])), abs(float(values[-1])))


def hermitian_eigen(a, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi.

    Sweeps visit the pairs ``p < q`` row by row (Golub & Van Loan, *Matrix
    Computations*, section 8.5) and skip a pair whose ``|a_pq|`` is at most
    ``1e-15 * ||a||_F / n``; iteration stops once the off-diagonal mass is at
    most ``1e-15 * ||a||_F``.  Each rotation ``J`` is one Hermitian update of
    ``J* a J``: the eigenvectors ride under the matrix in one ``2n x n``
    stack, whose columns ``p`` and ``q`` are rotated once; rows ``p`` and
    ``q`` are written as their conjugates, and the 2x2 block is set in closed form
    to ``a_pp - t beta`` and ``a_qq + t beta`` with zeros off the diagonal
    (``beta = |a_pq|``; ``t = tan(theta)`` is the root of smaller modulus of
    ``t^2 + 2 tau t - 1 = 0``, ``tau = (a_qq - a_pp) / (2 beta)``).

    The Hermitian check and the sweeps run on ``a / 2^e``
    (:func:`_binary_normalised`), symmetrised once the check passes, and the
    eigenvalues are scaled back by ``2^e`` once at the end, by
    :func:`_ldexp`, so the norms behind the check and the stopping rule
    neither underflow nor overflow at any scale, and
    ``hermitian_eigen(2^j a)`` is ``2^j`` times ``hermitian_eigen(a)`` bit
    for bit, vectors unchanged, while ``2^j a`` and its eigenvalues stay
    normal.

    Parameters
    ----------
    a
        Square matrix with ``relative_gap(a, a*) <= tol``.
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
    OverflowError
        If the largest eigenvalue in modulus lies outside the float64 range
        (a matrix whose entries fit may have one up to ``n`` times larger);
        the message names the eigenvalues.  Small ones round as IEEE does.
    """
    m, e = _binary_normalised(_matrix(a, square=True))
    defect = relative_gap(m, adjoint(m))
    if defect > tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: ||a - a*|| / ||a|| = {defect:.3e} exceeds {tol:.1e}"
        )
    n = m.shape[0]
    stack = np.vstack([(m + adjoint(m)) / 2.0, np.eye(n, dtype=m.dtype)])
    m = stack[:n]

    if n > 1:
        fro = float(np.linalg.norm(m))
        stop = fro * 1e-15

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
                    a_pq = m.item(p, q)
                    beta = abs(a_pq)
                    if beta <= stop / n:
                        continue
                    phase = a_pq / beta
                    a_pp = m.item(p, p).real
                    a_qq = m.item(q, q).real
                    tau = (a_qq - a_pp) / (2.0 * beta)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.hypot(1.0, tau))
                    else:
                        t = -1.0 / (-tau + math.hypot(1.0, tau))
                    c = 1.0 / math.hypot(1.0, t)
                    s = t * c
                    # J = [[c, s*phase], [-s*conj(phase), c]] on (p, q) turns
                    # m into J* m J and vecs into vecs J: rotate columns p and
                    # q of the stack [m; vecs] once.  J* m J is Hermitian and
                    # J* leaves the other rows alone, so rows p and q of m are
                    # the conjugates of its new columns; the 2x2 block is
                    # diagonalised in closed form.
                    cp = stack[:, p]
                    cq = stack[:, q]
                    new_p = c * cp - (s * phase.conjugate()) * cq
                    new_q = (s * phase) * cp + c * cq
                    stack[:, p] = new_p
                    stack[:, q] = new_q
                    m[p, :] = new_p[:n].conj()
                    m[q, :] = new_q[:n].conj()
                    m[p, p] = a_pp - t * beta
                    m[q, q] = a_qq + t * beta
                    m[p, q] = 0.0
                    m[q, p] = 0.0
        else:
            if _off_norm() > stop:
                raise ConvergenceError("Jacobi iteration did not converge")

    values = _ldexp(np.real(np.diagonal(m)), e, "the eigenvalues")
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values=values[order], vectors=canonical_sign(stack[n:, order]))


def min_eigenpair(a, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian matrix with its unit eigenvector."""
    eig = hermitian_eigen(a, tol=tol)
    return eig.min, eig.vectors[:, 0].copy()


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether a Hermitian matrix is positive semidefinite at tolerance.

    True iff ``lambda_min(a) >= -tol * max|lambda(a)|``.  When the failing
    direction is needed, read it as ``hermitian_eigen(a, tol).vectors[:, 0]``.
    """
    return hermitian_eigen(a, tol=tol).is_psd(tol)


def sqrt_psd(eig: EigenDecomposition, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive-semidefinite square root of a PSD matrix, given as its
    spectrum ``eig = hermitian_eigen(a)``: no eigensolve of its own.

    Eigenvalues below the PSD tolerance are clamped to zero, so mild
    round-off on the input does not leak into the result.  Raises
    :class:`NotPSDError` for genuinely indefinite input.
    """
    cutoff = eig.cutoff(tol)
    if not eig.is_psd(tol):
        raise NotPSDError(f"matrix has eigenvalue {eig.min:.6e} < -{cutoff:.3e}")
    # clamp at the tolerance, not at zero: a +1e-16 round-off eigenvalue
    # would otherwise surface as a 1e-8 singular value of the root, well
    # above any rank cutoff downstream consumers can reasonably use
    clamped = np.where(eig.values <= cutoff, 0.0, eig.values)
    root = (eig.vectors * np.sqrt(clamped)) @ adjoint(eig.vectors)
    return (root + adjoint(root)) / 2.0


def _rank(sigma: np.ndarray, tol: float) -> int:
    """Count of singular values (descending) above ``tol * sigma_max``."""
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with explicit rank thresholding.

    Singular values at or below ``DEFAULT_TOL * sigma_max`` are treated as
    exact zeros.
    The zero matrix maps to the (transposed) zero matrix.
    """
    u, sigma, vh = np.linalg.svd(_matrix(a), full_matrices=False)
    r = _rank(sigma, DEFAULT_TOL)
    return adjoint(vh[:r]) @ ((1.0 / sigma[:r])[:, None] * adjoint(u[:, :r]))


def spectral_norm(a) -> float:
    """Largest singular value."""
    m = _matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def operator_rank(a) -> int:
    """Numerical rank: the singular values above ``DEFAULT_TOL * sigma_max``."""
    return _rank(np.linalg.svd(_matrix(a), compute_uv=False), DEFAULT_TOL)


def orthonormal_range(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``(basis, sigma)``: an orthonormal basis of the column space, as matrix
    columns (``(m, 0)`` for rank-0 input), and the singular values
    (descending) it was cut by, at ``tol * sigma_max``, so ``||a|| =
    sigma[0]`` and, at rank ``r``, ``||a^+|| = 1 / sigma[r - 1]`` cost no
    further SVD."""
    u, sigma, _ = np.linalg.svd(_matrix(a), full_matrices=False)
    return u[:, :_rank(sigma, tol)], sigma


def orthonormal_nullspace(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(basis, sigma, coimage)``: an orthonormal basis of the kernel, as
    matrix columns, the singular values (descending) it was cut by, at
    ``tol * sigma_max``, and the right singular vectors of the ``r`` kept
    ones, an orthonormal basis of ``range(a*)``: ``a^+ = coimage diag(1 /
    sigma[:r]) u_r*`` for the left singular vectors ``u_r``, so the
    pseudo-inverse's action costs no second SVD."""
    _, sigma, vh = np.linalg.svd(_matrix(a), full_matrices=True)
    right, rank = adjoint(vh), _rank(sigma, tol)
    return right[:, rank:], sigma, right[:, :rank]


def invert(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``(inverse, sigma)`` of a square matrix: ``sigma`` holds its singular
    values (descending), which decide invertibility, so ``||a|| = sigma[0]``
    and ``||a^-1|| = 1 / sigma[-1]`` cost no further SVD.
    :class:`SingularOperatorError`, naming ``tol``, when the smallest
    singular value sits at or below ``tol * sigma_max``."""
    m = _matrix(a, square=True)
    sigma = np.linalg.svd(m, compute_uv=False)
    if _rank(sigma, tol) < m.shape[0]:
        raise SingularOperatorError(
            f"matrix is singular at rank tolerance {tol:.1e} (sigma_min={sigma[-1]:.3e})"
        )
    return np.linalg.inv(m), sigma


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
        True when the factor ``k`` is zero, making the shift unconstrained.
    """

    amount: float | None
    witness: np.ndarray | None
    degenerate: bool = False


def max_psd_shift(s_eig: EigenDecomposition, k, tol: float = DEFAULT_TOL) -> ShiftResult:
    """Largest ``a >= 0`` such that ``s - a*k k*`` stays positive semidefinite.

    ``s`` is given as its spectrum ``s_eig = hermitian_eigen(s)``, and the
    factor ``k`` (any column count) must have as many rows as ``s``; ``k k*``
    is PSD by construction.  Semidefiniteness of ``s`` is tested at
    tolerance (:meth:`EigenDecomposition.is_psd`).

    Once ``s`` is PSD the answer is the quotient constant
    ``1 / ||[k* / s^{1/2}]||^2`` (see :mod:`biframekit.quotient`), read off
    the spectrum ``s = V Lambda V*`` through ``W = V* k``:

    * *Range test.*  If the rows of ``W`` whose eigenvalue is at most the
      cutoff of ``s`` have ``sigma_max^2 > tol * sigma_max(W)^2``, ``k*`` sees
      the null space of ``s`` and no positive shift exists; the witness is
      that null space's basis times their top left singular vector.
    * *Otherwise* floor the spectrum to ``Lambda_f = (lambda + max(lambda,
      cutoff)) / 2`` and return ``1 / sigma_max(Lambda_f^{-1/2} W)^2``,
      witnessed by ``V Lambda_f^{-1/2} u`` for the top left singular vector
      ``u``.  Each eigenvalue rises by at most ``(cutoff - lambda) / 2 <=
      cutoff``, so ``s - a*k k* >= -cutoff * I``: PSD at tolerance.  An
      eigenvalue of exactly ``-cutoff`` floors to 0: if its row of ``W`` is
      zero it constrains nothing and is dropped, otherwise no positive shift
      exists and its eigenvector is the witness.

    The floor is what keeps the answer feasible.  An ``s`` that is PSD only
    at tolerance may couple ``range(k)`` by ``sqrt(tol)`` to a direction at
    which it nearly vanishes; dropping that direction reports a shift that
    ``s - a*k k*`` violates by about the coupling, and flooring at the
    cutoff itself lifts an eigenvalue of ``-0.9 * cutoff`` by ``1.9 *
    cutoff``.  A shift counts as zero when ``amount * sigma_max(k)^2`` is
    within the cutoff of ``s``.

    All of the above runs on ``k / 2^e`` and on the spectrum divided by an
    even power of two ``2^f`` (:func:`_binary_normalised`; the roots scale
    by exactly ``2^(f/2)``): ``W``, the roots, the singular values and both
    zero tests stay in range at any scale of ``s`` or ``k``, and the
    whitened shift ``1 / sigma^2`` is scaled back by ``2^f / 4^e`` once at
    the end, by :func:`_ldexp`.  Scaling by a power of two is exact, so
    wherever the unscaled arithmetic stays in range the result is bit for
    bit the unscaled one.  ``degenerate`` is set only for a ``k`` that is
    exactly zero.

    Eigensolves per call: 0, whatever ``k`` is; the spectrum of ``s`` is
    read, not computed.  SVDs per call: 1 when the smallest eigenvalue of
    ``s`` exceeds twice its cutoff, the whitened ``W`` by
    :func:`orthonormal_range`; below that also ``sigma_max(W)`` by
    :func:`spectral_norm`, for the zero tests, and 3 when ``s`` has
    eigenvalues within its cutoff, with the range test's
    :func:`orthonormal_range`.  The whitened shift times ``sigma_max(W)^2``
    is at least the smallest floored eigenvalue (``||Lambda_f^{-1/2} W|| <=
    ||W|| / sqrt(lambda_min)``), so above twice the cutoff the shift cannot
    count as zero and ``sigma_max(W)`` decides nothing.  Around the SVDs, a
    few passes over ``k`` and ``W``: ``k`` is read in place, not copied, the
    cutoffs are read off the ends of the ascending spectrum, and with no
    eigenvalue within the cutoff the spectrum is not floored.

    Returns
    -------
    ShiftResult
        ``amount=None`` when no shift above tolerance exists (e.g. ``s``
        indefinite, or ``s`` vanishing on a direction that ``k*`` sees);
        ``amount=math.inf`` flagged ``degenerate`` when ``k = 0`` and ``s``
        is PSD.

    Raises
    ------
    OverflowError
        When a positive shift exists but ``amount * 2^f / 4^e`` overflows or
        underflows to zero in float64; the message names both scales.
    """
    k_m = _matrix(k)
    n = s_eig.values.shape[0]
    if n != k_m.shape[0]:
        raise DimensionMismatchError(
            f"shape mismatch: spectrum of dimension {n} vs factor {k_m.shape}")
    k_unit, e = _binary_normalised(k_m)
    # k vanishes: the shift is unconstrained whenever s itself is PSD.
    degenerate = not k_unit.any()
    if not s_eig.is_psd(tol):
        # Even a = 0 fails; the bottom eigenvector certifies it.
        return ShiftResult(None, s_eig.vectors[:, 0].copy(), degenerate)
    if degenerate:
        return ShiftResult(math.inf, None, degenerate)

    # s / 2^f for an even f, so the roots below scale by exactly 2^(f/2)
    (lam, f), v = _binary_normalised(s_eig.values), s_eig.vectors
    if f % 2:
        lam, f = lam * 2.0, f - 1
    cutoff = _cutoff(lam, tol)
    w = adjoint(v) @ k_unit
    # sigma_max(W)^2 scales the two zero tests; the whitened shift times it
    # is at least the smallest (floored) eigenvalue, so above twice the
    # cutoff neither test can pass, and no SVD is spent on it
    p_max = spectral_norm(w) ** 2 if lam[0] <= 2.0 * cutoff else None
    if lam[0] <= cutoff:  # ascending: some eigenvalue is within the cutoff
        null = lam <= cutoff
        basis, sigma = orthonormal_range(w[null], tol)  # the range test
        if sigma[0] ** 2 > tol * p_max:
            return ShiftResult(None, unit_vector(v[:, null] @ basis[:, 0]))
        floored = (lam + np.maximum(lam, cutoff)) / 2.0
        live = floored > 0.0  # false only at lambda = -cutoff
        blocked = ~live & w.any(axis=1)
        if blocked.any():
            return ShiftResult(None, v[:, np.argmax(blocked)].copy())
        lam, w, v = floored[live], w[live], v[:, live]
    # above the cutoff, the floor (lambda + lambda) / 2 is lambda itself
    root = np.sqrt(lam)
    basis, sigma = orthonormal_range(w / root[:, None], tol)
    amount, witness = 1.0 / float(sigma[0]) ** 2, unit_vector(v @ (basis[:, 0] / root))
    if p_max is not None and amount * p_max <= cutoff:
        return ShiftResult(None, witness)
    # s - a*k k* = 2^f (s / 2^f - (a * 4^e / 2^f) * k_unit k_unit*)
    return ShiftResult(_ldexp(amount, f - 2 * e, f"the shift for a spectrum of scale 2^{f} "
                                                 f"and a target of scale 2^{e}"), witness)
