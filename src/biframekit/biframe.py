"""Sampled biframe systems and their bound analysis.

A *system* is two families of vectors sampled on a common weighted node set
(an analysis family and a synthesis family) together with a square *target*
operator.  The system's quadratic form at a vector ``f`` is

    form(f) = sum_i w_i <f, F_i> <G_i, f>,

with ``F`` the analysis family and ``G`` the synthesis family, and the whole
package revolves around two-sided estimates

    lower * ||K* f||^2  <=  form(f)  <=  upper * ||f||^2

against the target ``K``.  The form equals ``<S f, f>`` for the accumulated
frame operator ``S = sum_i w_i G_i F_i*``, which need not be self-adjoint;
every bound computation therefore works with the Hermitian part of ``S`` and
reports the relative asymmetry ``||S - S*|| / ||S||`` so silent symmetry
assumptions never go unmeasured.

Optimal bounds are eigenvalue quantities of that Hermitian part: the optimal
upper bound is its largest eigenvalue, and the optimal lower bound is the
largest ``a`` with ``Herm(S) - a K K*`` still PSD (see
:func:`biframekit.linalg.max_psd_shift`).  A system is *valid* when a
strictly positive lower bound exists.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    MalformedBoundsError,
)
from .linalg import DEFAULT_TOL
from .measure import DiscreteMeasure


class NonSelfAdjointWarning(UserWarning):
    """Raised (as a warning) when a quadratic form keeps a noticeable
    imaginary part, i.e. the frame operator is measurably non-self-adjoint."""


@dataclass(frozen=True, eq=False)
class SampledField:
    """A vector field sampled on the measure's nodes: one row per node."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, copy=True)
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"samples must form a (nodes, dim) array, got ndim={arr.ndim}"
            )
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("field samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def nodes(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.samples)


@dataclass(frozen=True, eq=False)
class BiframeSystem:
    """Two sampled families with a weighted node set and a target operator.

    Attributes
    ----------
    measure:
        The node weights (one weight per sample row).
    analysis:
        Family supplying the coefficients ``<f, F_i>``.
    synthesis:
        Family the form reconstructs against, ``<G_i, f>``.
    target:
        Square matrix ``K`` the lower bound is measured against
        (``K = I`` recovers ordinary two-sided frame bounds).
    """

    measure: DiscreteMeasure
    analysis: SampledField
    synthesis: SampledField
    target: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        k = linalg.as_matrix(self.target, square=True)
        k.flags.writeable = False
        object.__setattr__(self, "target", k)
        if self.analysis.nodes != len(self.measure) or self.synthesis.nodes != len(self.measure):
            raise DimensionMismatchError(
                f"sample counts ({self.analysis.nodes}, {self.synthesis.nodes}) "
                f"do not match the {len(self.measure)}-node measure"
            )
        if self.analysis.dim != self.synthesis.dim or self.analysis.dim != k.shape[0]:
            raise DimensionMismatchError(
                f"space dimensions disagree: analysis {self.analysis.dim}, "
                f"synthesis {self.synthesis.dim}, target {k.shape[0]}"
            )
        kinds = {self.analysis.is_complex, self.synthesis.is_complex, np.iscomplexobj(k)}
        if len(kinds) != 1:
            raise FieldMismatchError(
                "analysis family, synthesis family and target must share one scalar field"
            )

    @classmethod
    def from_samples(cls, measure: DiscreteMeasure, analysis, synthesis, target) -> "BiframeSystem":
        return cls(
            measure=measure,
            analysis=SampledField(np.asarray(analysis)),
            synthesis=SampledField(np.asarray(synthesis)),
            target=np.asarray(target),
        )

    @property
    def dim(self) -> int:
        return self.analysis.dim

    @property
    def field_name(self) -> str:
        return "complex" if self.analysis.is_complex else "real"

    def with_target(self, target) -> "BiframeSystem":
        """Same samples and weights, different target operator."""
        return BiframeSystem(
            measure=self.measure,
            analysis=self.analysis,
            synthesis=self.synthesis,
            target=np.asarray(target),
        )


def analysis(field_: SampledField, f) -> np.ndarray:
    """Coefficient vector ``c_i = <f, field_i>`` of ``f`` against the field."""
    vec = linalg.as_vector(f, dim=field_.dim)
    return np.conj(field_.samples) @ vec


def synthesis(field_: SampledField, measure: DiscreteMeasure, coeffs) -> np.ndarray:
    """Weighted recombination ``sum_i w_i c_i field_i``.

    This is the adjoint of :func:`analysis` with respect to the weighted
    node inner product ``<c, d> = sum_i w_i c_i conj(d_i)``.
    """
    c = linalg.as_vector(coeffs, dim=field_.nodes)
    if len(measure) != field_.nodes:
        raise DimensionMismatchError("measure and field disagree on the node count")
    return (measure.weights * c) @ field_.samples


def frame_operator(system: BiframeSystem) -> np.ndarray:
    """Accumulated operator ``S = sum_i w_i G_i F_i*`` (so ``<S f, f>`` equals
    the system's quadratic form).  Cached on the system."""
    cached = system._cache.get("frame_operator")
    if cached is None:
        w = system.measure.weights
        f_mat = system.analysis.samples
        g_mat = system.synthesis.samples
        cached = g_mat.T @ (w[:, None] * np.conj(f_mat))
        cached.flags.writeable = False
        system._cache["frame_operator"] = cached
    return cached


def biframe_form(system: BiframeSystem, f, tol: float | None = None) -> float:
    """Quadratic form ``sum_i w_i <f, F_i> <G_i, f>`` evaluated directly.

    The sum is real whenever the frame operator is self-adjoint; only the
    real part is returned, with a :class:`NonSelfAdjointWarning` if the
    imaginary remainder exceeds ``tol * ||f||^2 * ||S||``.
    """
    if tol is None:
        tol = DEFAULT_TOL
    vec = linalg.as_vector(f, dim=system.dim)
    coeff = np.conj(system.analysis.samples) @ vec
    recon = system.synthesis.samples @ np.conj(vec)
    value = complex(system.measure.weights @ (coeff * recon))
    op_norm = system._cache.get("frame_norm")
    if op_norm is None:
        op_norm = linalg.spectral_norm(frame_operator(system))
        system._cache["frame_norm"] = op_norm
    scale = float(np.real(np.vdot(vec, vec))) * op_norm
    if scale > 0.0 and abs(value.imag) > tol * scale:
        warnings.warn(
            f"form has imaginary part {value.imag:.3e}; the frame operator "
            "is not self-adjoint at this tolerance",
            NonSelfAdjointWarning,
            stacklevel=2,
        )
    return value.real


def swap(system: BiframeSystem) -> BiframeSystem:
    """Exchange the analysis and synthesis families.

    The swapped system has frame operator ``S*``, hence the identical
    Hermitian part and identical optimal bounds.
    """
    return BiframeSystem(
        measure=system.measure,
        analysis=system.synthesis,
        synthesis=system.analysis,
        target=system.target,
    )


def gram_target(system: BiframeSystem) -> np.ndarray:
    """``K K*`` for the system's target ``K`` (the reference PSD matrix the
    lower bound is measured against)."""
    k = system.target
    return k @ linalg.adjoint(k)


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Outcome of :func:`optimal_bounds`.

    ``lower_opt`` is the best possible lower constant (``math.inf`` when the
    target vanishes, ``None`` when no positive constant exists);
    ``upper_opt`` is the best upper constant, i.e. the top eigenvalue of the
    Hermitian part.  ``witness_lower`` spans the direction where the lower
    pencil is tight (or fails); ``witness_negative_form`` is present exactly
    when the form takes negative values, and makes that concrete.
    """

    lower_opt: float | None
    upper_opt: float
    valid: bool
    witness_lower: np.ndarray | None
    witness_negative_form: np.ndarray | None
    asymmetry: float
    degenerate: bool = False


def optimal_bounds(system: BiframeSystem, tol: float | None = None) -> BoundsReport:
    """Best achievable bound pair for the system against its target.

    The lower constant solves ``max { a : Herm(S) - a K K* >= 0 }`` in closed
    form (:func:`linalg.max_psd_shift`); the upper constant is
    ``lambda_max(Herm(S))``.  Validity means a strictly positive lower
    constant exists.
    """
    if tol is None:
        tol = DEFAULT_TOL
    s = frame_operator(system)
    herm = linalg.hermitian_part(s)
    asym = linalg.asymmetry(s)
    eig = linalg.hermitian_eigen(herm, tol=tol)
    negative_witness = None if eig.is_psd(tol) else eig.vectors[:, 0].copy()

    shift = linalg.max_psd_shift(herm, gram_target(system), tol=tol)
    lower = shift.amount
    valid = lower is not None and lower > 0.0
    return BoundsReport(
        lower_opt=lower,
        upper_opt=eig.max,
        valid=valid,
        witness_lower=shift.witness,
        witness_negative_form=negative_witness,
        asymmetry=asym,
        degenerate=shift.degenerate,
    )


@dataclass(frozen=True, eq=False)
class BoundsVerification:
    """Pass/fail detail for a claimed bound pair."""

    ok: bool
    lower_ok: bool
    upper_ok: bool
    lower_margin: float
    upper_margin: float
    witness: np.ndarray | None


def check_bounds(system: BiframeSystem, lower: float, upper: float,
                 tol: float | None = None) -> BoundsVerification:
    """Like :func:`verify_bounds` but with margins and a failing witness."""
    if tol is None:
        tol = DEFAULT_TOL
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise MalformedBoundsError("bounds must be finite numbers")
    if not (0.0 < lower <= upper):
        raise MalformedBoundsError(
            f"need 0 < lower <= upper, got lower={lower!r} upper={upper!r}"
        )
    herm = linalg.hermitian_part(frame_operator(system))
    low = linalg.hermitian_eigen(herm - lower * gram_target(system), tol=tol)
    up = linalg.hermitian_eigen(upper * np.eye(system.dim, dtype=herm.dtype) - herm, tol=tol)
    lower_ok = low.is_psd(tol)
    upper_ok = up.is_psd(tol)
    failed = low if not lower_ok else up if not upper_ok else None
    return BoundsVerification(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        lower_margin=low.min,
        upper_margin=up.min,
        witness=None if failed is None else failed.vectors[:, 0].copy(),
    )


def verify_bounds(system: BiframeSystem, lower: float, upper: float,
                  tol: float | None = None) -> bool:
    """Whether the pair ``(lower, upper)`` is a valid bound pair:
    ``Herm(S) - lower * K K*`` and ``upper * I - Herm(S)`` both PSD at
    tolerance.  Claims with ``lower <= 0`` or ``lower > upper`` are rejected
    as :class:`MalformedBoundsError`."""
    return check_bounds(system, lower, upper, tol=tol).ok


@dataclass(frozen=True)
class Classification:
    """Structural flags for a system (all measured at tolerance)."""

    families_equal: bool
    tight: bool
    tight_constant: float | None
    parseval: bool
    bessel_only: bool


def classify(system: BiframeSystem, tol: float | None = None) -> Classification:
    """Structural classification.

    * ``families_equal`` -- analysis and synthesis samples coincide;
    * ``tight`` -- ``Herm(S) = c * K K*`` for some ``c > 0`` (least-squares
      fit of ``c``, then a residual check);
    * ``parseval`` -- tight with constant 1;
    * ``bessel_only`` -- the upper bound is finite (always, here) but no
      positive lower bound exists.
    """
    if tol is None:
        tol = DEFAULT_TOL
    fa = system.analysis.samples
    fs = system.synthesis.samples
    sample_scale = max(1.0, float(np.max(np.abs(fa))) if fa.size else 0.0)
    families_equal = bool(np.all(np.abs(fa - fs) <= tol * sample_scale))

    herm = linalg.hermitian_part(frame_operator(system))
    gram = gram_target(system)
    herm_scale = max(1.0, float(np.linalg.norm(herm)))
    gram_sq = float(np.real(np.vdot(gram, gram)))
    tight = False
    constant: float | None = None
    if gram_sq > 0.0:
        fit = float(np.real(np.vdot(gram, herm))) / gram_sq
        if fit > 0.0 and float(np.linalg.norm(herm - fit * gram)) <= tol * herm_scale:
            tight = True
            constant = fit
    parseval = bool(float(np.linalg.norm(herm - gram)) <= tol * herm_scale)

    report = optimal_bounds(system, tol=tol)
    return Classification(
        families_equal=families_equal,
        tight=tight,
        tight_constant=constant,
        parseval=parseval,
        bessel_only=not report.valid,
    )
