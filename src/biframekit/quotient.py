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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .biframe import BiframeSystem, frame_operator, gram_target, optimal_bounds
from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL
from .opcalc import _map_samples


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


def quotient_norm(u, v) -> QuotientResult:
    """Decide whether ``[U/V]`` exists and compute its norm if so.

    Null-space containment is tested through an orthonormal null basis of
    ``V``: the quotient exists iff ``U`` annihilates that basis to within
    ``DEFAULT_TOL * ||U||``.  The norm is the spectral norm of ``U V^+``,
    whose kernel already contains ``range(V)``-orthogonal directions, so no
    explicit restriction is needed.
    """
    u_mat = linalg.as_matrix(u)
    v_mat = linalg.as_matrix(v)
    if u_mat.shape != v_mat.shape:
        raise DimensionMismatchError(
            f"quotient needs operators of equal shape, got {u_mat.shape} and {v_mat.shape}"
        )

    null_basis = linalg.orthonormal_nullspace(v_mat)
    u_scale = linalg.spectral_norm(u_mat)
    if null_basis.shape[1]:
        restricted = u_mat @ null_basis
        top = np.linalg.svd(restricted, compute_uv=False)
        if top.size and top[0] > DEFAULT_TOL * u_scale:
            _, _, vh = np.linalg.svd(restricted)
            witness = linalg.canonical_sign(null_basis @ np.conj(vh[0]))
            return QuotientResult(False, None, witness, None)

    v_scale = linalg.spectral_norm(v_mat)
    if v_scale == 0.0:
        # V = 0 forces U = 0 (containment already checked); the quotient is
        # the zero map on a trivial range.
        return QuotientResult(True, 0.0, None, None)

    v_pinv = linalg.pseudo_inverse(v_mat)
    sigma, achieved = _top_singular(u_mat @ v_pinv)
    if sigma * v_scale <= DEFAULT_TOL * u_scale:
        # U vanishes on range(V*): the ratio is 0 along any non-null input.
        _, direction = _top_singular(v_mat)
        return QuotientResult(True, 0.0, None, direction)
    achiever = v_pinv @ achieved
    return QuotientResult(True, float(sigma), None,
                          linalg.canonical_sign(linalg.unit_vector(achiever)))


def _top_singular(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest singular value and the corresponding right-singular vector."""
    _, sigma, vh = np.linalg.svd(a)
    return float(sigma[0]), linalg.canonical_sign(np.conj(vh[0]))


@dataclass(frozen=True, eq=False)
class ValidityCrossCheck:
    """Two independent answers to "is this system valid against its target?".

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
    :class:`~biframekit.errors.NotPSDError` otherwise.
    """
    root = linalg.sqrt_psd(linalg.hermitian_part(frame_operator(system)), tol=tol)
    report = optimal_bounds(system, tol=tol)
    quot = quotient_norm(linalg.adjoint(system.target), root)
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

    ``degenerate`` flags ``T K = 0``, where all three hold vacuously.
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
    """Evaluate the three equivalent validity predicates for a push by ``T``."""
    t_mat = linalg.as_matrix(t, square=True)
    if t_mat.shape[0] != system.dim:
        raise DimensionMismatchError(
            f"transform is {t_mat.shape[0]}x{t_mat.shape[1]}, system dimension is {system.dim}"
        )
    herm = linalg.hermitian_part(frame_operator(system))
    root = linalg.sqrt_psd(herm, tol=tol)  # NotPSDError unless herm is PSD

    pushed = _map_samples(system, t_mat, t_mat @ system.target)
    pushed_report = optimal_bounds(pushed, tol=tol)

    numerator = linalg.adjoint(pushed.target)
    plain = quotient_norm(numerator, root @ linalg.adjoint(t_mat))
    # T H T* is Hermitian by construction, but cancellation may leave it at round-off
    pushed_root = linalg.sqrt_psd(linalg.hermitian_part(t_mat @ herm @ linalg.adjoint(t_mat)),
                                  tol=tol)
    through = quotient_norm(numerator, pushed_root)

    target_scale = linalg.spectral_norm(system.target) * linalg.spectral_norm(t_mat)
    degenerate = linalg.spectral_norm(pushed.target) <= tol * target_scale
    return TransformEquivalences(
        pushed_valid=bool(pushed_report.valid),
        quotient_plain=bool(plain.exists),
        quotient_pushed=bool(through.exists),
        degenerate=bool(degenerate),
    )
