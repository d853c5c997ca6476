"""Constructions that derive new biframe systems from existing ones.

Every function here takes a system, transforms its sampled families and/or
its target operator, and returns a :class:`ConstructionResult`: the new
system plus the bound pair the construction rule guarantees from the input's
bounds.  The guaranteed constants are the rules' literal ones, deliberately
so even where they are conservative -- recomputing :func:`~biframekit.biframe.optimal_bounds`
on the result and comparing is precisely how the test-suite turns each rule
into an executable claim.

``certified`` records whether the guaranteed lower constant actually follows
from the construction.  Most rules are certified; the additive combinations
(:func:`combine_sum`), the n-ary product chain and the positive perturbation
carry stated constants that can be beaten by the transformed system's true
bounds going the *wrong* way, so they are reported with ``certified=False``
and the tests track how often the claim survives instead of asserting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .biframe import (
    BiframeSystem,
    BoundsReport,
    check_bounds,
    frame_operator,
    gram_target,
    optimal_bounds,
)
from .errors import (
    DimensionMismatchError,
    MalformedBoundsError,
    NotABiframeError,
    NotCommutingError,
    NotPSDError,
    NotHermitianError,
    NotTightError,
    RangeNotContainedError,
    SingularFrameOperatorError,
    SingularOperatorError,
    ZeroOperatorError,
)
from .linalg import DEFAULT_TOL, RANK_TOL


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """A constructed system together with its guaranteed bound pair.

    Attributes
    ----------
    system:
        The new system; its target is the predicted target of the rule.
    guaranteed_lower:
        Lower constant the rule promises (``None`` if the rule promises
        none, e.g. :func:`apply_operator` on an invalid input).
    guaranteed_upper:
        Upper constant the rule promises.
    rule:
        Short name of the construction ("promote", "sandwich", ...).
    certified:
        True when the lower constant is a consequence of the construction;
        False when it is a stated claim that the optimal bounds may refute.
    """

    system: BiframeSystem
    guaranteed_lower: float | None
    guaranteed_upper: float
    rule: str
    certified: bool = True

    @property
    def predicted_target(self) -> np.ndarray:
        return self.system.target


def _as_operator(a, dim: int, name: str = "operator") -> np.ndarray:
    mat = linalg.as_matrix(a, square=True)
    if mat.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} is {mat.shape[0]}x{mat.shape[1]}, system dimension is {dim}"
        )
    return mat


def _map_samples(system: BiframeSystem, u: np.ndarray, target) -> BiframeSystem:
    """Apply ``u`` to every sampled vector of both families (same measure)."""
    return BiframeSystem.from_samples(
        system.measure,
        system.analysis.samples @ u.T,
        system.synthesis.samples @ u.T,
        target,
    )


def _valid_bounds(system: BiframeSystem, tol: float, what: str) -> tuple[float, float]:
    """Optimal bounds of a system that must be valid, else :class:`NotABiframeError`."""
    report = optimal_bounds(system, tol=tol)
    if not report.valid or report.lower_opt is None or not np.isfinite(report.lower_opt):
        raise NotABiframeError(
            f"{what} admits no positive lower bound against its target"
        )
    return float(report.lower_opt), float(report.upper_opt)


def _require_identity_target(system: BiframeSystem, tol: float, what: str) -> None:
    eye = np.eye(system.dim)
    gap = float(np.linalg.norm(system.target - eye))
    if gap > tol * max(1.0, float(np.linalg.norm(system.target))):
        raise NotABiframeError(
            f"{what} expects a plain system (identity target); "
            f"the target differs from the identity by {gap:.3e}"
        )


def promote(system: BiframeSystem, new_target, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Reinterpret a plain biframe relative to an arbitrary target.

    A system with identity target and bounds ``(A, B)`` satisfies the lower
    inequality against any nonzero ``K`` as well, because
    ``||K* f||^2 <= ||K||^2 ||f||^2``; the promoted bounds are
    ``(A / ||K||^2, B)``.
    """
    _require_identity_target(system, tol, "promote")
    lower, upper = _valid_bounds(system, tol, "promote input")
    k = _as_operator(new_target, system.dim, "new target")
    k_norm = linalg.spectral_norm(k)
    if k_norm == 0.0:
        raise ZeroOperatorError("cannot promote to a zero target")
    return ConstructionResult(
        system=system.with_target(k),
        guaranteed_lower=lower / k_norm**2,
        guaranteed_upper=upper,
        rule="promote",
    )


def restrict_to_range(system: BiframeSystem, *, tol: float = DEFAULT_TOL,
                      rank_tol: float = RANK_TOL) -> ConstructionResult:
    """Compress a valid system onto the range of its target.

    On ``range(K)`` the target satisfies ``||K* f|| >= ||f|| / ||K^+||``, so
    the compressed system (families projected onto an orthonormal range
    basis, identity target of the reduced dimension) is a plain biframe with
    guaranteed bounds ``(A / ||K^+||^2, B)``.
    """
    lower, upper = _valid_bounds(system, tol, "restriction input")
    k = system.target
    basis = linalg.orthonormal_range(k, rank_tol=rank_tol)
    rank = basis.shape[1]
    if rank == 0:
        raise ZeroOperatorError("target range is trivial; nothing to restrict to")
    pinv_norm = linalg.spectral_norm(linalg.pseudo_inverse(k, rank_tol=rank_tol))
    compressed = BiframeSystem.from_samples(
        system.measure,
        system.analysis.samples @ np.conj(basis),
        system.synthesis.samples @ np.conj(basis),
        np.eye(rank, dtype=basis.dtype),
    )
    return ConstructionResult(
        system=compressed,
        guaranteed_lower=lower / pinv_norm**2,
        guaranteed_upper=upper,
        rule="restrict",
    )


def combine_sum(system: BiframeSystem, terms: Sequence[tuple[complex, np.ndarray]], *,
                bounds: Sequence[tuple[float, float]] | None = None,
                tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Re-target a system onto a linear combination of target operators.

    ``terms`` is a sequence of ``(coefficient, target)`` pairs; the system
    must be valid against every listed target (verified, either from the
    supplied per-term ``bounds`` or from freshly computed optimal ones).
    The resulting target is ``sum_j a_j K_j``.

    The stated guarantees are kept verbatim: for two terms the lower
    constant is ``[max(|a_1|^2, |a_2|^2) (1/A_1 + 1/A_2)]^-1`` with upper
    ``(B_1 + B_2)/2``; for n terms it is ``min_j A_j / (n max_j |a_j|^2)``
    with upper ``min_j B_j``.  Neither lower constant is implied by the
    hypotheses (the triangle-inequality step loses a factor up to ``n``),
    hence ``certified=False``.
    """
    if not terms:
        raise ValueError("combine_sum needs at least one (coefficient, target) term")
    coeffs = np.array([complex(a) for a, _ in terms])
    targets = [_as_operator(k, system.dim, f"target #{j}") for j, (_, k) in enumerate(terms)]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("combination coefficients must be finite")
    peak = float(np.max(np.abs(coeffs)) ** 2)
    if peak == 0.0:
        raise ZeroOperatorError("all combination coefficients vanish")

    if bounds is None:
        pairs = [_valid_bounds(system.with_target(k), tol, f"term #{j}")
                 for j, k in enumerate(targets)]
    else:
        if len(bounds) != len(terms):
            raise ValueError("need exactly one bound pair per term")
        pairs = []
        for j, (k, (lo, hi)) in enumerate(zip(targets, bounds)):
            if not check_bounds(system.with_target(k), lo, hi, tol=tol).ok:
                raise NotABiframeError(
                    f"claimed bounds ({lo}, {hi}) fail against target #{j}"
                )
            pairs.append((float(lo), float(hi)))

    combined = sum(a * k for a, k in zip(coeffs, targets))
    if not np.iscomplexobj(system.target):
        if np.iscomplexobj(combined) and np.max(np.abs(combined.imag)) == 0.0:
            combined = combined.real

    if len(terms) == 2:
        (a1, b1), (a2, b2) = pairs
        lower = 1.0 / (peak * (1.0 / a1 + 1.0 / a2))
        upper = (b1 + b2) / 2.0
    else:
        lower = min(lo for lo, _ in pairs) / (len(terms) * peak)
        upper = min(hi for _, hi in pairs)
    return ConstructionResult(
        system=system.with_target(combined),
        guaranteed_lower=lower,
        guaranteed_upper=upper,
        rule="sum",
        certified=False,
    )


def combine_product(system: BiframeSystem, right_target, *,
                    tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Re-target a valid system from ``K`` onto the composition ``K K_2``.

    Since ``||(K K_2)* f|| = ||K_2* K* f|| <= ||K_2|| ||K* f||``, the lower
    bound transfers with a ``||K_2||^2`` penalty: guaranteed
    ``(A / ||K_2||^2, B)``.
    """
    k2 = _as_operator(right_target, system.dim, "right target")
    nrm = linalg.spectral_norm(k2)
    if nrm == 0.0:
        raise ZeroOperatorError("right target is zero; composed target would vanish")
    lower, upper = _valid_bounds(system, tol, "product input")
    return ConstructionResult(
        system=system.with_target(system.target @ k2),
        guaranteed_lower=lower / nrm**2,
        guaranteed_upper=upper,
        rule="product",
    )


def product_chain(system: BiframeSystem, targets: Sequence[np.ndarray], *,
                  tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Re-target onto the ordered composition ``K_1 K_2 ... K_n``.

    The system must be valid against every listed target.  The stated chain
    constant divides the common lower bound by ``prod_{j<n} ||K_j||^2`` --
    the norms of all factors *except the last* -- which matches a peeling
    argument only when the composition is reversed, so the constant is
    reported with ``certified=False`` and left to the numeric check.
    """
    if len(targets) < 2:
        raise ValueError("a chain needs at least two targets")
    mats = [_as_operator(k, system.dim, f"target #{j}") for j, k in enumerate(targets)]
    pairs = [_valid_bounds(system.with_target(k), tol, f"chain term #{j}")
             for j, k in enumerate(mats)]
    penalty = 1.0
    for k in mats[:-1]:
        nrm = linalg.spectral_norm(k)
        if nrm == 0.0:
            raise ZeroOperatorError("chain contains a zero factor")
        penalty *= nrm**2
    composed = mats[0]
    for k in mats[1:]:
        composed = composed @ k
    return ConstructionResult(
        system=system.with_target(composed),
        guaranteed_lower=min(lo for lo, _ in pairs) / penalty,
        guaranteed_upper=min(hi for _, hi in pairs),
        rule="product-chain",
        certified=False,
    )


def apply_operator(system: BiframeSystem, u, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Push both families through ``U``; the target becomes ``U K``.

    The new form at ``f`` is the old form at ``U* f``, so the frame operator
    transforms as ``S -> U S U*`` and the old lower constant survives
    unchanged: ``form'(f) >= A ||K* U* f||^2 = A ||(U K)* f||^2``.  The upper
    constant inflates to ``B ||U||^2``.  No validity is required; an invalid
    input simply yields ``guaranteed_lower=None``.
    """
    mat = _as_operator(u, system.dim)
    report = optimal_bounds(system, tol=tol)
    lower = report.lower_opt if report.valid else None
    return ConstructionResult(
        system=_map_samples(system, mat, mat @ system.target),
        guaranteed_lower=lower,
        guaranteed_upper=float(report.upper_opt) * linalg.spectral_norm(mat) ** 2,
        rule="apply",
    )


def canonical_dual(system: BiframeSystem, new_target, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Map a plain biframe through ``K S^{-1}`` to get a ``K``-targeted system.

    The construction needs the true frame operator (not just its Hermitian
    part) to be invertible; validity of the input guarantees that, since a
    positive-definite Hermitian part forces ``S f != 0``.  Guaranteed bounds
    are ``(A / ||S||^2, B ||S^{-1}||^2 ||K||^2)``.
    """
    _require_identity_target(system, tol, "canonical_dual")
    lower, upper = _valid_bounds(system, tol, "dual input")
    k = _as_operator(new_target, system.dim, "new target")
    s = frame_operator(system)
    try:
        s_inv = linalg.invert(s)
    except SingularOperatorError as exc:
        raise SingularFrameOperatorError(
            "frame operator is numerically singular; no canonical dual exists"
        ) from exc
    s_norm = linalg.spectral_norm(s)
    mapped = _map_samples(system, k @ s_inv, k)
    return ConstructionResult(
        system=mapped,
        guaranteed_lower=lower / s_norm**2,
        guaranteed_upper=upper * linalg.spectral_norm(s_inv) ** 2 * linalg.spectral_norm(k) ** 2,
        rule="dual",
    )


def sandwich(system: BiframeSystem, u, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Push the families through ``U`` while conjugating the target to ``U K U*``.

    Guaranteed bounds ``(A / ||U||^2, B ||U||^2)``.
    """
    mat = _as_operator(u, system.dim)
    u_norm = linalg.spectral_norm(mat)
    if u_norm == 0.0:
        raise ZeroOperatorError("sandwich by the zero operator loses every bound")
    lower, upper = _valid_bounds(system, tol, "sandwich input")
    target = mat @ system.target @ linalg.adjoint(mat)
    return ConstructionResult(
        system=_map_samples(system, mat, target),
        guaranteed_lower=lower / u_norm**2,
        guaranteed_upper=upper * u_norm**2,
        rule="sandwich",
    )


def inverse_conjugate(system: BiframeSystem, u, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Undo an operator push: map the families by ``U^{-1}``, the target to
    ``U^{-1} K U``.

    The input is read as an already-transformed system ``(U F, U G)`` whose
    original is being recovered; guaranteed bounds ``(A / ||U||^2,
    B ||U^{-1}||^2)``.  ``U`` must be invertible.
    """
    mat = _as_operator(u, system.dim)
    inv = linalg.invert(mat)  # SingularOperatorError for defective u
    lower, upper = _valid_bounds(system, tol, "inverse_conjugate input")
    target = inv @ system.target @ mat
    return ConstructionResult(
        system=_map_samples(system, inv, target),
        guaranteed_lower=lower / linalg.spectral_norm(mat) ** 2,
        guaranteed_upper=upper * linalg.spectral_norm(inv) ** 2,
        rule="inverse-conjugate",
    )


def max_transfer_ratio(system: BiframeSystem, u, *, tol: float = DEFAULT_TOL,
                       rank_tol: float = RANK_TOL) -> float:
    """Largest ``delta`` with ``||U* f|| >= delta ||K* f||`` for all ``f``.

    Requires ``range(U) <= range(K)`` (checked against the target's
    orthonormal range basis).  The ratio is the square root of the maximal
    PSD shift of ``U U*`` along ``K K*``; it is strictly positive exactly
    when pushing the system through ``U`` (:func:`apply_operator`, but
    keeping the *original* target ``K``) again yields a valid system.
    """
    mat = _as_operator(u, system.dim)
    k = system.target
    basis = linalg.orthonormal_range(k, rank_tol=rank_tol)
    residual = mat - basis @ (linalg.adjoint(basis) @ mat)
    if linalg.spectral_norm(residual) > rank_tol * max(1.0, linalg.spectral_norm(mat)):
        raise RangeNotContainedError(
            "operator range is not contained in the target range"
        )
    shift = linalg.max_psd_shift(mat @ linalg.adjoint(mat), gram_target(system), tol=tol)
    if shift.amount is None:
        return 0.0
    return float(np.sqrt(shift.amount))


def commuting_transform(system: BiframeSystem, t, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Push the families through an invertible ``T`` that commutes with the target.

    Commutation makes ``||K* T* f|| = ||T* K* f|| >= ||K* f|| / ||T^{-1}||``,
    so the target survives unchanged with guaranteed bounds
    ``(A / ||T^{-1}||^2, B ||T||^2)``.
    """
    mat = _as_operator(t, system.dim)
    inv = linalg.invert(mat)
    k = system.target
    gap = linalg.spectral_norm(mat @ k - k @ mat)
    if gap > tol * max(1.0, linalg.spectral_norm(mat) * linalg.spectral_norm(k)):
        raise NotCommutingError(
            f"operator does not commute with the target (defect {gap:.3e})"
        )
    lower, upper = _valid_bounds(system, tol, "commuting input")
    return ConstructionResult(
        system=_map_samples(system, mat, k),
        guaranteed_lower=lower / linalg.spectral_norm(inv) ** 2,
        guaranteed_upper=upper * linalg.spectral_norm(mat) ** 2,
        rule="commute",
    )


def perturb_positive(system: BiframeSystem, t, power: int = 1, *,
                     tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Perturb the families by a PSD operator: samples map through ``I + T^n``.

    The frame operator becomes ``(I + T^n) S (I + T^n)*``.  The stated rule
    keeps the input's lower constant ``A`` against the unchanged target on
    the grounds that ``I + T^n >= I``; that implication does not hold for
    non-commuting ``S`` and ``T`` (conjugation is not monotone), so the
    lower constant is reported with ``certified=False``.  The upper constant
    ``B ||I + T^n||^2`` is sound.
    """
    if power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    mat = _as_operator(t, system.dim, "perturbation")
    try:
        herm = linalg._require_hermitian(mat, tol, "perturbation")
    except NotHermitianError as exc:
        raise NotPSDError("perturbation must be self-adjoint to be PSD") from exc
    if not linalg.is_psd(herm, tol=tol):
        raise NotPSDError("perturbation has a negative eigenvalue beyond tolerance")
    lower, upper = _valid_bounds(system, tol, "perturbation input")
    bump = np.eye(system.dim, dtype=herm.dtype) + np.linalg.matrix_power(herm, power)
    return ConstructionResult(
        system=_map_samples(system, bump, system.target),
        guaranteed_lower=lower,
        guaranteed_upper=upper * linalg.spectral_norm(bump) ** 2,
        rule="perturb",
        certified=False,
    )


def tight_scaling_check(system: BiframeSystem, tight_constant: float,
                        plain_constant: float, *, tol: float = DEFAULT_TOL) -> bool:
    """Whether a tight targeted system is also tight as a plain system.

    The input must be tight against its target with constant
    ``tight_constant`` (``Herm(S) = A_1 K K*``, verified).  Tightness as a
    plain system with constant ``A_2`` is then equivalent to
    ``(A_1/A_2) K K* = I``, which is what this checks.
    """
    if not (tight_constant > 0.0 and plain_constant > 0.0):
        raise MalformedBoundsError("tightness constants must be positive")
    herm = linalg.hermitian_part(frame_operator(system))
    gram = gram_target(system)
    defect = float(np.linalg.norm(herm - tight_constant * gram))
    if defect > tol * max(1.0, float(np.linalg.norm(herm))):
        raise NotTightError(
            f"system is not tight with constant {tight_constant!r} (defect {defect:.3e})"
        )
    ratio = tight_constant / plain_constant
    gap = linalg.spectral_norm(ratio * gram - np.eye(system.dim))
    return bool(gap <= tol * max(1.0, abs(ratio) * linalg.spectral_norm(gram)))


def parseval_check(system: BiframeSystem, *, tol: float = DEFAULT_TOL) -> bool:
    """True when the system is Parseval: ``Herm(S) = K K* = I`` at tolerance."""
    herm = linalg.hermitian_part(frame_operator(system))
    gram = gram_target(system)
    eye = np.eye(system.dim)
    herm_ok = float(np.linalg.norm(herm - eye)) <= tol * max(1.0, float(np.linalg.norm(herm)))
    gram_ok = float(np.linalg.norm(gram - eye)) <= tol * max(1.0, float(np.linalg.norm(gram)))
    return herm_ok and gram_ok
