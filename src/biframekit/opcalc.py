"""Constructions that derive new biframe systems from existing ones.

Every function here takes a system, transforms its sampled families and/or
its target operator, and returns a :class:`ConstructionResult`: the new
system plus the bound pair the construction rule guarantees from the input's
bounds.  The guaranteed constants are the rules' literal ones, deliberately
so even where they are conservative -- recomputing :func:`~biframekit.biframe.optimal_bounds`
on the result and comparing is precisely how the test-suite turns each rule
into an executable claim.

Every constant a squared norm scales is formed by :func:`linalg._rescaled`,
exactly: an operator scaled by ``2^j`` scales it by ``2^{+-2j}``, and in
range it is the plain product bit for bit.  A rule forms its constants
before any product that grows with its operator (the result's keywords are
evaluated in the order written), so a constant that float64 cannot hold
raises ``OverflowError`` first, never a false ``0`` or ``inf``; so do
mapped samples or a target that leave float64: every product a rule forms
is a :func:`~biframekit.linalg._product`, one power of two per row.

``certified`` records whether the guaranteed lower constant actually follows
from the construction.  Most rules are certified; the additive combinations
(:func:`combine_sum`), the n-ary product chain and the positive perturbation
carry stated constants that can be beaten by the transformed system's true
bounds going the *wrong* way, so they are reported with ``certified=False``
and the tests track how often the claim survives instead of asserting it.
A subnormal lower constant is never certified: it has lost bits, and may
have rounded up past the true constant.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .biframe import (
    BiframeSystem,
    BoundsReport,
    _as_operator,
    _gram_is_identity,
    _herm_part,
    _map_samples,
    _tight_defect,
    frame_operator,
    optimal_bounds,
)
from .errors import (
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
from .linalg import DEFAULT_TOL
from .quotient import _unit_quotient


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
        False when it is a stated claim that the optimal bounds may refute,
        and for a subnormal lower constant, which has lost bits and may have
        rounded up past the true one (the value ships unchanged).
    """

    system: BiframeSystem
    guaranteed_lower: float | None
    guaranteed_upper: float
    rule: str
    certified: bool = True

    def __post_init__(self):
        if 0.0 < (self.guaranteed_lower or 0.0) < sys.float_info.min:
            object.__setattr__(self, "certified", False)


def _valid_bounds(system: BiframeSystem, tol: float, what: str) -> tuple[float, float]:
    """Optimal bounds of a system that must be valid against a nonzero target,
    else :class:`NotABiframeError`: ``optimal_bounds`` decides both, the
    zero target as ``report.degenerate``."""
    report = optimal_bounds(system, tol=tol)
    if not report.valid or report.degenerate:
        raise NotABiframeError(
            f"{what} admits no positive lower bound against its target"
        )
    return float(report.lower_opt), float(report.upper_opt)


def _require_identity_target(system: BiframeSystem, tol: float, what: str) -> None:
    gap = linalg.relative_gap(system.target, np.eye(system.dim))
    if gap > tol:
        raise NotABiframeError(
            f"{what} expects a plain system (identity target); "
            f"the target differs from the identity by {gap:.3e} relative to its norm"
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
        guaranteed_lower=linalg._rescaled(lower, down=(k_norm,)),
        guaranteed_upper=upper,
        system=system.with_target(k),
        rule="promote",
    )


def restrict_to_range(system: BiframeSystem, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Compress a valid system onto the range of its target.

    On ``range(K)`` the target satisfies ``||K* f|| >= ||f|| / ||K^+||``, so
    the compressed system (families projected onto an orthonormal range
    basis, identity target of the reduced dimension) is a plain biframe with
    guaranteed bounds ``(A / ||K^+||^2, B)``.  The range basis is cut at
    ``tol * ||K||``, the rank rule of the call.
    """
    lower, upper = _valid_bounds(system, tol, "restriction input")
    basis, sigma = linalg.orthonormal_range(system.target, tol)
    rank = basis.shape[1]
    eye = np.eye(rank, dtype=basis.dtype)
    if np.array_equal(basis, eye):
        # the basis is the standard one: same samples, and the same cache
        compressed = system.with_target(eye)
    else:
        compressed = _map_samples(system, linalg.adjoint(basis), [eye])
    return ConstructionResult(
        guaranteed_lower=linalg._rescaled(lower, up=(sigma[rank - 1],)),  # ||K^+|| = 1 / sigma_r
        guaranteed_upper=upper,
        system=compressed,
        rule="restrict",
    )


def combine_sum(system: BiframeSystem, terms: Sequence[tuple[complex, np.ndarray]], *,
                tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Re-target a system onto a linear combination of target operators.

    ``terms`` is a sequence of ``(coefficient, target)`` pairs; the system
    must be valid against every listed target, and each term contributes
    its optimal bound pair.  The resulting target is ``sum_j a_j K_j``.

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
    peak = float(np.max(np.abs(coeffs)))
    if peak == 0.0:
        raise ZeroOperatorError("all combination coefficients vanish")

    pairs = [_valid_bounds(system.with_target(k), tol, f"term #{j}")
             for j, k in enumerate(targets)]
    if len(terms) == 2:
        (a1, b1), (a2, b2) = pairs
        lower = linalg._rescaled(1.0 / (1.0 / a1 + 1.0 / a2), down=(peak,))
        upper = (b1 + b2) / 2.0
    else:
        lower = linalg._rescaled(min(lo for lo, _ in pairs) / len(terms), down=(peak,))
        upper = min(hi for _, hi in pairs)

    combined = sum(a * k for a, k in zip(coeffs, targets))
    if not np.iscomplexobj(system.target):
        if np.iscomplexobj(combined) and np.max(np.abs(combined.imag)) == 0.0:
            combined = combined.real
    return ConstructionResult(
        guaranteed_lower=lower,
        guaranteed_upper=upper,
        system=system.with_target(combined),
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
        guaranteed_lower=linalg._rescaled(lower, down=(nrm,)),
        guaranteed_upper=upper,
        system=system.with_target(linalg._product(system.target, k2, what="the composed target")),
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
    lower = linalg._rescaled(min(lo for lo, _ in pairs),
                             down=[linalg.spectral_norm(k) for k in mats[:-1]])
    return ConstructionResult(
        guaranteed_lower=lower,
        guaranteed_upper=min(hi for _, hi in pairs),
        system=system.with_target(linalg._product(*mats, what="the composed target")),
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
    return ConstructionResult(
        guaranteed_lower=report.lower_opt if report.valid else None,
        guaranteed_upper=linalg._rescaled(report.upper_opt, up=(linalg.spectral_norm(mat),)),
        system=_map_samples(system, mat, [mat, system.target]),
        rule="apply",
    )


def canonical_dual(system: BiframeSystem, new_target, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Map a plain biframe through ``K S^{-1}`` to get a ``K``-targeted system.

    The construction needs the true frame operator (not just its Hermitian
    part) to be invertible; validity of the input guarantees that, since a
    positive-definite Hermitian part forces ``S f != 0``, and ``S`` is
    inverted at the same ``tol`` (:func:`linalg.invert`).  Guaranteed bounds
    are ``(A / ||S||^2, B ||S^{-1}||^2 ||K||^2)``.
    """
    _require_identity_target(system, tol, "canonical_dual")
    lower, upper = _valid_bounds(system, tol, "dual input")
    k = _as_operator(new_target, system.dim, "new target")
    try:
        s_inv, sigma = linalg.invert(frame_operator(system), tol)
    except SingularOperatorError as exc:
        raise SingularFrameOperatorError(
            "frame operator is numerically singular; no canonical dual exists"
        ) from exc
    return ConstructionResult(
        guaranteed_lower=linalg._rescaled(lower, down=(sigma[0],)),
        guaranteed_upper=linalg._rescaled(upper, up=(linalg.spectral_norm(k),), down=(sigma[-1],)),
        system=_map_samples(system, linalg._product(k, s_inv, what="the operator K S^-1"), [k]),
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
    return ConstructionResult(
        guaranteed_lower=linalg._rescaled(lower, down=(u_norm,)),
        guaranteed_upper=linalg._rescaled(upper, up=(u_norm,)),
        system=_map_samples(system, mat, [mat, system.target, linalg.adjoint(mat)]),
        rule="sandwich",
    )


def inverse_conjugate(system: BiframeSystem, u, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Undo an operator push: map the families by ``U^{-1}``, the target to
    ``U^{-1} K U``.

    The input is read as an already-transformed system ``(U F, U G)`` whose
    original is being recovered; guaranteed bounds ``(A / ||U||^2,
    B ||U^{-1}||^2)``.  ``U`` must be invertible at ``tol``
    (:func:`linalg.invert`).
    """
    mat = _as_operator(u, system.dim)
    inv, sigma = linalg.invert(mat, tol)  # SingularOperatorError for defective u
    lower, upper = _valid_bounds(system, tol, "inverse_conjugate input")
    return ConstructionResult(
        guaranteed_lower=linalg._rescaled(lower, down=(sigma[0],)),
        guaranteed_upper=linalg._rescaled(upper, down=(sigma[-1],)),
        system=_map_samples(system, inv, [inv, system.target, mat]),
        rule="inverse-conjugate",
    )


def max_transfer_ratio(system: BiframeSystem, u, *, tol: float = DEFAULT_TOL) -> float:
    """Largest ``delta`` with ``||U* f|| >= delta ||K* f||`` for all ``f``.

    Requires ``range(U) <= range(K)``: the residual of ``U / 2^e`` off the
    orthonormal range basis of ``K / 2^f``, cut at ``tol * ||K||``, is
    compared with ``tol * (||U|| + ||K||)`` (a ``U`` that is round-off of
    zero has no scale of its own), all at the larger of the two scales
    (:func:`linalg._at_top_scale`), so no norm or projection overflows.
    The ratio is ``1 / ||[K*/U*]||``
    (:func:`~biframekit.quotient.quotient_norm` at ``tol``):
    0 when that quotient does not exist, since then some ``f`` has ``U* f =
    0`` but ``K* f != 0``, and ``inf`` for ``U = K = 0``.  It is strictly
    positive exactly when pushing the system through ``U``
    (:func:`apply_operator`, but keeping the *original* target ``K``) again
    yields a valid system.  The rank of ``U`` is decided on its singular
    values, at ``tol * ||U||`` (the quotient's null basis of ``U*``).  The
    quotient is taken of ``K / 2^f`` and ``U / 2^e``
    (:func:`linalg._binary_normalised`), ``delta`` is formed from its
    singular value and scaled back by ``2^(e - f)`` once, by
    :func:`linalg._ldexp`, so it stays right at any scale of ``U`` and
    ``K``; a ratio float64 cannot hold raises ``OverflowError``.

    Eigensolves per call: 0.  SVDs per call: 4, or 5 when a nonzero ``U``
    has a kernel that ``K*`` annihilates, each by a :mod:`~biframekit.linalg`
    helper, and ``U`` and ``K`` are each decomposed once: ``range(K)`` with
    ``||K|| = ||K*||``, ``U*`` with ``||U||`` and ``null(U*)``, which serve
    both the range check and the quotient, the residual's norm, then ``K*``
    on ``null(U*)`` when there is one, and the whitened ``K*`` when the
    quotient exists and ``U`` is nonzero.
    """
    mat = _as_operator(u, system.dim)
    (unit, e), (k_unit, f) = map(linalg._binary_normalised, (mat, system.target))
    basis, sigma = linalg.orthonormal_range(k_unit, tol)
    u_svd = linalg.orthonormal_nullspace(linalg.adjoint(unit), tol)
    residual = unit - basis @ (linalg.adjoint(basis) @ unit)
    gap, u_norm, k_norm = linalg._at_top_scale(
        [linalg.spectral_norm(residual), u_svd[1][0], sigma[0]], [e, e, f])
    if gap > tol * (u_norm + k_norm):
        raise RangeNotContainedError("operator range is not contained in the target range")
    # [K* / U*] of the unit operands, at the scale the ratio is scaled back from
    quot = _unit_quotient(linalg.adjoint(k_unit), sigma[0], u_svd, 0, 0, tol)
    if not quot.exists:
        return 0.0
    if quot.norm == 0.0:  # U = K = 0
        return math.inf
    return linalg._ldexp(1.0 / quot.norm, e - f, "the transfer ratio")


def commuting_transform(system: BiframeSystem, t, *, tol: float = DEFAULT_TOL) -> ConstructionResult:
    """Push the families through a ``T`` that commutes with the target and is
    invertible at ``tol`` (:func:`linalg.invert`).

    Commutation makes ``||K* T* f|| = ||T* K* f|| >= ||K* f|| / ||T^{-1}||``,
    so the target survives unchanged with guaranteed bounds
    ``(A / ||T^{-1}||^2, B ||T||^2)``.  Commutation is decided as
    ``relative_gap(T K, K T) <= tol`` on ``T / 2^e`` and ``K / 2^f``
    (:func:`linalg._binary_normalised`), so neither product overflows.
    """
    mat = _as_operator(t, system.dim)
    _, sigma = linalg.invert(mat, tol)
    t_unit, k_unit = (linalg._binary_normalised(m)[0] for m in (mat, system.target))
    defect = linalg.relative_gap(t_unit @ k_unit, k_unit @ t_unit)
    if defect > tol:
        raise NotCommutingError(
            f"operator does not commute with the target (relative defect {defect:.3e})"
        )
    lower, upper = _valid_bounds(system, tol, "commuting input")
    return ConstructionResult(
        guaranteed_lower=linalg._rescaled(lower, up=(sigma[-1],)),  # ||T^-1|| = 1 / sigma_min
        guaranteed_upper=linalg._rescaled(upper, up=(sigma[0],)),
        system=_map_samples(system, mat, [system.target]),
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
    ``B ||I + T^n||^2`` is sound.  One eigensolve ``T = V Lambda V*`` decides
    that ``T`` is PSD and gives ``I + T^n = V (1 + Lambda^n) V*``, with norm
    ``max |1 + lambda^n|``.  ``T^n`` fits iff ``max(||T||, 1)^n`` does,
    which is formed as ``2^f 2^k`` from ``n log2 max(||T||, 1) = k + f``
    (``f`` in ``[0, 1)``) and scaled back once by :func:`linalg._ldexp`, so
    no power of the norm itself overflows, whatever ``n``: one beyond
    float64 raises ``OverflowError`` before numpy forms ``T^n``.
    """
    if power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    mat = _as_operator(t, system.dim, "perturbation")
    try:
        eig = linalg.hermitian_eigen(mat, tol=tol)
    except NotHermitianError as exc:
        raise NotPSDError("perturbation must be self-adjoint to be PSD") from exc
    if not eig.is_psd(tol):
        raise NotPSDError("perturbation has a negative eigenvalue beyond tolerance")
    lower, upper = _valid_bounds(system, tol, "perturbation input")
    # PSD: eig.max = ||T||; only a norm above 1 has a power that can overflow
    k, f = divmod(power * math.log2(max(eig.max, 1.0)), 1.0)
    linalg._ldexp(2.0 ** f, int(k), f"the perturbation T^{power}")
    grow = 1.0 + eig.values ** power
    return ConstructionResult(
        guaranteed_lower=lower,
        guaranteed_upper=linalg._rescaled(upper, up=(float(np.max(np.abs(grow))),)),
        system=_map_samples(system, (eig.vectors * grow) @ linalg.adjoint(eig.vectors),
                            [system.target]),
        rule="perturb",
        certified=False,
    )


def tight_scaling_check(system: BiframeSystem, tight_constant: float,
                        plain_constant: float, *, tol: float = DEFAULT_TOL) -> bool:
    """Whether a tight targeted system is also tight as a plain system.

    The input must be tight against its target with constant
    ``tight_constant`` (``Herm(S) = A_1 K K*``, verified, else
    :class:`NotTightError`).  Tightness as a plain system with constant
    ``A_2`` is then equivalent to ``(A_1/A_2) K K* = I``, which is what this
    checks.  Each equation has its one decider, ``biframe._tight_defect``
    and ``biframe._gram_is_identity`` (Frobenius, by
    ``linalg.relative_gap``), on ``c K K*`` formed by
    :func:`~biframekit.biframe.gram_target`, right at any scale of ``K``.
    A ``c K K*`` float64 cannot hold, among them one with a ratio
    ``A_1/A_2`` beyond float64, reads as "not equal", never as an
    ``inf``, a false 0 or a ``RuntimeWarning``.
    """
    if not (tight_constant > 0.0 and plain_constant > 0.0):
        raise MalformedBoundsError("tightness constants must be positive")
    defect = _tight_defect(system, tight_constant)
    if defect > tol:
        raise NotTightError(
            f"system is not tight with constant {tight_constant!r} (relative defect {defect:.3e})"
        )
    return _gram_is_identity(system, tight_constant / plain_constant, tol)


def parseval_check(system: BiframeSystem, *, tol: float = DEFAULT_TOL) -> bool:
    """True when the system is Parseval: ``Herm(S) = K K* = I`` at tolerance.

    ``K K* = I`` is decided by ``biframe._gram_is_identity``, the decider
    :func:`tight_scaling_check` uses too, on ``K K*`` formed by
    :func:`~biframekit.biframe.gram_target`: a ``K K*`` float64 cannot
    hold, too large or rounding to 0, is nowhere near the identity."""
    return (linalg.relative_gap(_herm_part(system), np.eye(system.dim)) <= tol
            and _gram_is_identity(system, 1.0, tol))
