"""Quotients of one operator by another, and the validity checks they enable.

For operators ``U`` and ``V`` on the same space, the *quotient* ``[U/V]`` is
the map ``V f -> U f`` on ``range(V)``.  It is well defined exactly when
``null(V) <= null(U)``; its norm is the best constant ``c`` in
``||U f|| <= c ||V f||``.  That constant is what connects quotients to bound
analysis: a system is valid against a target ``K`` precisely when
``[K* / H^{1/2}]`` is well defined (``H`` the Hermitian part of the frame
operator), and then the optimal lower bound is ``1 / norm^2``.

Both sides of that equivalence are rank decisions, so they can split under
rounding when a system sits numerically on the boundary.  The cross-check
below therefore never asserts agreement; it reports a shared verdict when
the two predicates agree and ``None`` (indeterminate at tolerance) when they
do not.

:func:`~biframekit.biframe.optimal_bounds` itself computes the lower bound
by this theorem (:func:`~biframekit.linalg.max_psd_shift` whitens ``K`` by
the floored spectrum of ``H``), so :func:`validity_cross_check` compares two
implementations of one theorem, whitening by the singular values of
``H^{1/2}`` against whitening by the floored eigenvalues of ``H``, not two
independent decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .biframe import BiframeSystem, _as_operator, _herm_spectrum, _map_samples, optimal_bounds
from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL


@dataclass(frozen=True, eq=False)
class QuotientResult:
    """Existence, norm and witnesses for a quotient ``[U/V]``.

    ``violation_witness`` is a unit vector in ``null(V)`` outside ``null(U)``
    when the quotient does not exist.  ``achiever`` is a unit vector where
    the ratio ``||U f|| / ||V f||`` attains the norm (``None`` for the
    degenerate ``V = 0`` case, which leaves nothing to achieve).
    """

    exists: bool
    norm: float | None
    violation_witness: np.ndarray | None
    achiever: np.ndarray | None


def quotient_norm(u, v, tol: float = DEFAULT_TOL) -> QuotientResult:
    """Decide whether ``[U/V]`` exists and compute its norm if so.

    One SVD of ``V = U_r Sigma_r V_r*`` gives its null basis, cut at ``tol *
    ||V||``, ``||V||`` and the action of ``V^+ = V_r Sigma_r^-1 U_r*``.  The
    quotient exists iff ``U`` annihilates the null basis to within ``tol *
    ||U||``.  Its norm is ``||U V^+|| = ||U V_r Sigma_r^-1||``, since
    ``U_r*`` has orthonormal rows, and it is attained at ``V_r Sigma_r^-1 y``
    for the top right singular vector ``y`` of ``U V_r Sigma_r^-1``.

    SVDs per call: at most 4, each taken by :func:`linalg.orthonormal_nullspace`
    or :func:`linalg.spectral_norm`: ``V``, ``||U||``, ``U`` on the null basis
    (when ``V`` has a kernel) and ``U V_r Sigma_r^-1`` (when ``V`` is nonzero
    and the quotient exists).

    All of it is decided on ``U / 2^e`` and ``V / 2^f``
    (:func:`linalg._binary_normalised`), so nothing over- or underflows at
    any operator scale, and the norm is scaled back once by ``2^(e - f)``:
    in range that is the plain result bit for bit, and a nonzero norm that
    float64 cannot hold raises ``OverflowError``, never a false 0 or ``inf``.
    """
    u_mat = linalg.as_matrix(u)
    v_mat = linalg.as_matrix(v)
    if u_mat.shape != v_mat.shape:
        raise DimensionMismatchError(
            f"quotient needs operators of equal shape, got {u_mat.shape} and {v_mat.shape}"
        )
    u_mat, e = linalg._binary_normalised(u_mat)
    v_mat, f = linalg._binary_normalised(v_mat)
    v_svd = linalg.orthonormal_nullspace(v_mat, tol)
    return _unit_quotient(u_mat, linalg.spectral_norm(u_mat), v_svd, e, f, tol)


def _unit_quotient(u_mat: np.ndarray, u_scale: float, v_svd, e: int, f: int,
                   tol: float) -> QuotientResult:
    """:func:`quotient_norm` of ``U = u_mat * 2^e`` and ``V``, given
    ``||u_mat||`` and ``v_svd``, the :func:`linalg.orthonormal_nullspace` of
    ``V / 2^f``: a caller that holds both already, as the transfer ratio
    does, spends no second SVD on them."""
    null_basis, v_sigma, coimage = v_svd
    if null_basis.shape[1]:
        _, top, right = linalg.orthonormal_nullspace(u_mat @ null_basis, tol)
        if top[0] > tol * u_scale:
            witness = linalg.canonical_sign(null_basis @ right[:, 0])
            return QuotientResult(False, None, witness, None)

    rank = coimage.shape[1]
    if rank == 0:
        # V = 0 forces U = 0 (containment already checked); the quotient is
        # the zero map on a trivial range.
        return QuotientResult(True, 0.0, None, None)

    whitened = coimage / v_sigma[:rank]  # V_r Sigma_r^-1
    _, sigma, right = linalg.orthonormal_nullspace(u_mat @ whitened, tol)
    if sigma[0] * v_sigma[0] <= tol * u_scale:
        # U vanishes on range(V*): the ratio is 0 along any non-null input,
        # reported at V's top right singular vector.
        return QuotientResult(True, 0.0, None, linalg.canonical_sign(coimage[:, 0]))
    norm = linalg._ldexp(float(sigma[0]), e - f, f"the norm of [U/V] at scales 2^{e}, 2^{f}")
    return QuotientResult(True, norm, None, linalg.unit_vector(whitened @ right[:, 0]))


@dataclass(frozen=True, eq=False)
class ValidityCrossCheck:
    """Two answers to "is this system valid against its target?", by two
    implementations of the quotient theorem (see the module docstring).

    ``pencil_valid`` comes from the eigenvalue pencil
    (:func:`~biframekit.biframe.optimal_bounds`); ``quotient_bounded`` from
    existence of ``[K*/H^{1/2}]``.  ``verdict`` is their shared value, or
    ``None`` when they disagree (indeterminate at tolerance).  When valid,
    ``lower_opt`` and ``quotient_norm`` should satisfy
    ``lower_opt * norm^2 = 1``.
    """

    pencil_valid: bool
    quotient_bounded: bool
    quotient_norm: float | None
    lower_opt: float | None
    verdict: bool | None

    @property
    def indeterminate(self) -> bool:
        return self.verdict is None


def validity_cross_check(system: BiframeSystem, *, tol: float = DEFAULT_TOL) -> ValidityCrossCheck:
    """Cross-check pencil validity against quotient existence.

    Requires the Hermitian part of the frame operator to be PSD (the upper
    estimate alone); its PSD square root is the quotient's denominator, and
    :func:`~biframekit.linalg.sqrt_psd` raises
    :class:`~biframekit.errors.NotPSDError` otherwise.  The pencil, the
    root's clamp and the quotient's null basis are all decided at ``tol``.
    """
    root = linalg.sqrt_psd(_herm_spectrum(system), tol=tol)
    report = optimal_bounds(system, tol=tol)
    quot = quotient_norm(linalg.adjoint(system.target), root, tol=tol)
    agree = bool(report.valid) == bool(quot.exists)
    return ValidityCrossCheck(
        pencil_valid=bool(report.valid),
        quotient_bounded=bool(quot.exists),
        quotient_norm=quot.norm,
        lower_opt=report.lower_opt,
        verdict=bool(report.valid) if agree else None,
    )


@dataclass(frozen=True, eq=False)
class TransformEquivalences:
    """Three equivalent validity tests for a system pushed through ``T``.

    * ``pushed_valid`` -- the pushed system is valid against the pushed
      target ``T K`` (eigenvalue pencil);
    * ``quotient_plain`` -- ``[(T K)* / H^{1/2} T*]`` exists;
    * ``quotient_pushed`` -- ``[(T K)* / (T H T*)^{1/2}]`` exists.

    ``degenerate`` flags an exactly zero ``T K``, where all three hold
    vacuously.
    """

    pushed_valid: bool
    quotient_plain: bool
    quotient_pushed: bool
    degenerate: bool

    @property
    def all_agree(self) -> bool:
        return self.pushed_valid == self.quotient_plain == self.quotient_pushed


def transform_equivalences(system: BiframeSystem, t, *,
                           tol: float = DEFAULT_TOL) -> TransformEquivalences:
    """Evaluate the three equivalent validity predicates for a push by ``T``:
    the pencil and the pushed quotient are :func:`validity_cross_check` of
    the pushed system."""
    t_mat = _as_operator(t, system.dim, "transform")
    # NotPSDError unless Herm(S) is PSD
    root = linalg.sqrt_psd(_herm_spectrum(system), tol=tol)

    pushed = _map_samples(system, t_mat, [t_mat, system.target])
    # the pencil and [(T K)* / (T H T*)^{1/2}], on the pushed system
    check = validity_cross_check(pushed, tol=tol)
    plain = quotient_norm(linalg.adjoint(pushed.target), root @ linalg.adjoint(t_mat), tol=tol)
    return TransformEquivalences(
        pushed_valid=check.pencil_valid,
        quotient_plain=bool(plain.exists),
        quotient_pushed=check.quotient_bounded,
        # T H T* is PSD here, so an infinite lower constant means T K = 0
        degenerate=check.lower_opt == math.inf,
    )
