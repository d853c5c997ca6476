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
from typing import Sequence

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
        arr = linalg.as_matrix(self.samples)
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
    # what the samples determine: S, Herm(S), its spectrum, ||S|| and the
    # asymmetry, each made once by _cached; with_target shares the dict
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    # what the target determines too: the shift of each tol, made by
    # _cached; the system's own, so it dies with the system
    _shifts: dict = field(default_factory=dict, repr=False, compare=False)
    # the two systems a tensor product is formed from, whose S it multiplies
    _factors: tuple | None = field(default=None, repr=False, compare=False)

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

    @classmethod
    def _from_valid(cls, measure: DiscreteMeasure, analysis: SampledField,
                    synthesis: SampledField, target: np.ndarray,
                    factors: tuple["BiframeSystem", "BiframeSystem"]) -> "BiframeSystem":
        """The product of the systems ``factors`` on parts that are valid by
        construction, unchecked: a measure and two fields of as many nodes,
        fields of one dimension and scalar field, and a fresh square
        ``float64`` or ``complex128`` target of that dimension and field with
        finite entries, which it makes read-only and keeps uncopied.  Its
        ``S`` is formed from the factors' (:func:`frame_operator`).  A tensor
        system's parts are; checking fresh products again would cost about as
        much as forming them."""
        target.flags.writeable = False
        system = object.__new__(cls)
        for name, value in (("measure", measure), ("analysis", analysis),
                            ("synthesis", synthesis), ("target", target),
                            ("_cache", {}), ("_shifts", {}), ("_factors", factors)):
            object.__setattr__(system, name, value)
        return system

    @property
    def dim(self) -> int:
        return self.analysis.dim

    @property
    def field_name(self) -> str:
        return "complex" if self.analysis.is_complex else "real"

    def with_target(self, target) -> "BiframeSystem":
        """Same samples and weights, different target operator.

        The new system shares this one's cache: ``S``, ``Herm(S)``, its
        spectrum, ``||S||`` and the asymmetry, computed on either system,
        serve both, and the factors a product's ``S`` is formed from.  The
        shift of each ``tol`` depends on the target, so each system keeps
        its own."""
        return BiframeSystem(
            measure=self.measure,
            analysis=self.analysis,
            synthesis=self.synthesis,
            target=np.asarray(target),
            _cache=self._cache,
            _factors=self._factors,
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


def _cached(system: BiframeSystem, key, make, *, shared: bool = True):
    """The value cached under ``key``, made by ``make()`` on first use: the
    one door to the caches.  What the samples determine is kept in
    ``_cache``, which ``with_target`` shares; a value the target determines
    too (``shared=False``, a shift) in the system's own ``_shifts``.  A
    stored array, or the arrays of a stored spectrum or shift, are made
    read-only, so what one caller reads no other can change."""
    store = system._cache if shared else system._shifts
    if key not in store:
        value = make()
        records = (linalg.EigenDecomposition, linalg.ShiftResult)
        arrays = vars(value).values() if isinstance(value, records) else [value]
        for arr in arrays:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        store[key] = value
    return store[key]


def _unit_samples(system: BiframeSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(w', F / 2^b, G / 2^c, e)``: each node's samples divided by their own
    powers of two ``2^b_i``, ``2^c_i`` (:func:`linalg._binary_normalised` by
    row), the node's exponent ``r_i = a_i + b_i + c_i``, with ``2^a_i`` the
    power of two of its weight (``frexp``), carried by its weight, ``w'_i =
    w_i 2^(min(r_i - e, 0) - a_i)`` (one :func:`linalg._shift`, one
    rounding), and ``e``, the largest ``r_i`` of a node whose term can be
    nonzero, which scales a sum of their products back.  A node with a zero
    sample row adds nothing, so it sets no scale.  Node terms so stay in
    range at every scale; the weight of a node term more than ``2^1022``
    below the largest is subnormal and loses bits, and one more than
    ``2^1074`` below flushes to 0."""
    w = system.measure.weights
    (f, b), (g, c) = (linalg._binary_normalised(x, rows=True) for x in (
        system.analysis.samples, system.synthesis.samples))
    a = np.frexp(w)[1] - 1
    r = a + b + c
    e = int(r[f.any(axis=1) & g.any(axis=1)].max(initial=r.min()))
    return linalg._shift(w, np.minimum(r - e, 0) - a), f, g, e


def _unit_frame(system: BiframeSystem) -> tuple[np.ndarray, int]:
    """``(S / 2^e, e)``: ``S`` summed from :func:`_unit_samples`."""
    w, f, g, e = _unit_samples(system)
    return g.T @ (w[:, None] * np.conj(f)), e


_SUMS = "the frame operator's sums"


def frame_operator(system: BiframeSystem) -> np.ndarray:
    """Accumulated operator ``S = sum_i w_i G_i F_i*`` (so ``<S f, f>`` equals
    the system's quadratic form).  Cached on the system.  ``S`` is summed
    node by node from :func:`_unit_samples` and scaled back once by
    :func:`linalg._ldexp`, so it is right wherever it fits, even where
    ``w_i F_i`` does not, or where one node's samples lie far below
    another's.  It is the plain sum bit for bit wherever the plain
    arithmetic, and the same arithmetic on the quotients, keep every entry
    normal.  That fails, and bits are lost, where a node term lies more
    than ``2^1022`` below the largest (its scaled weight is subnormal) or an
    entry of ``S`` does (it is subnormal at the sum's scale): ``S =
    diag(2^1000, 2^-50)`` keeps about 24 bits of its second entry.  An ``S``
    whose largest entry float64 cannot hold raises ``OverflowError`` ("the
    frame operator's sums lie outside the float64 range").

    The ``S`` of a tensor product (``tensor.tensor_system``) is not summed:
    over a product measure, ``S = S1 (x) S2``, formed by
    :func:`linalg._kron` from the factors' own cached ``S``, and shared by
    its ``with_target`` systems.  A factor whose ``S`` float64 cannot hold
    enters as its sum divided by a power of two (:func:`_unit_frame`),
    whose exponent the product takes back, so the product's ``S`` is right
    wherever it fits."""
    return _cached(system, "frame_operator", lambda: (
        _product_frame(*system._factors) if system._factors
        else linalg._ldexp(*_unit_frame(system), _SUMS)))


def _product_frame(left: BiframeSystem, right: BiframeSystem) -> np.ndarray:
    """``S1 (x) S2`` for the systems ``left`` and ``right``."""
    try:
        (s1, e1), (s2, e2) = ((frame_operator(s), 0) for s in (left, right))
    except OverflowError:  # a factor's S beyond float64: its sum over 2^e, and e
        (s1, e1), (s2, e2) = (_unit_frame(s) for s in (left, right))
    return linalg._kron(s1, s2, _SUMS, e1 + e2)


def _herm_part(system: BiframeSystem) -> np.ndarray:
    """``Herm(S)``, read-only and cached on the system."""
    return _cached(system, "herm_part", lambda: linalg.hermitian_part(frame_operator(system)))


def _herm_spectrum(system: BiframeSystem) -> linalg.EigenDecomposition:
    """Eigendecomposition of ``Herm(S)``, read-only and cached on the system.

    ``hermitian_part`` is exactly Hermitian, so no tolerance enters it: one
    entry serves every ``tol``."""
    return _cached(system, "herm_spectrum", lambda: linalg.hermitian_eigen(_herm_part(system)))


def biframe_form(system: BiframeSystem, f, tol: float = DEFAULT_TOL) -> float:
    """Quadratic form ``sum_i w_i <f, F_i> <G_i, f>`` evaluated directly.

    The sum is real whenever the frame operator is self-adjoint; only the
    real part is returned, with a :class:`NonSelfAdjointWarning` if the
    imaginary remainder exceeds ``tol * ||f||^2 * ||S||``.

    The sum and that test run on ``f / 2^e`` and :func:`_unit_samples`, node
    by node, and the form is scaled back once by :func:`linalg._ldexp`: it is
    the plain sum bit for bit wherever the plain arithmetic, and the same
    arithmetic on the quotients, keep every entry normal (not so where a
    node term lies more than ``2^1022`` below the largest, as in
    :func:`frame_operator`), and a form float64 cannot hold raises
    ``OverflowError`` ("the form lies outside the float64 range").
    """
    vec, e = linalg._binary_normalised(linalg.as_vector(f, dim=system.dim))
    w, fa, ga, exp = _unit_samples(system)
    value = complex(w @ ((np.conj(fa) @ vec) * (ga @ np.conj(vec))))  # form(f) / 2^(exp + 2e)
    # ||S|| / 2^exp, so that the test compares like with like
    op_norm = _cached(system, "frame_norm", lambda: linalg.spectral_norm(_unit_frame(system)[0]))
    scale = float(np.real(np.vdot(vec, vec))) * op_norm
    if scale > 0.0 and abs(value.imag) > tol * scale:
        warnings.warn(
            f"form has imaginary part {linalg._ldexp(value.imag, exp + 2 * e, 'the form'):.3e}; "
            "the frame operator is not self-adjoint at this tolerance",
            NonSelfAdjointWarning,
            stacklevel=2,
        )
    return linalg._ldexp(value.real, exp + 2 * e, "the form")


def swap(system: BiframeSystem) -> BiframeSystem:
    """Exchange the analysis and synthesis families.

    The swapped system has frame operator ``S*``, hence the identical
    Hermitian part and identical optimal bounds.  It shares no cache with
    ``system``: its ``S*`` is formed from the swapped samples and need not
    equal the adjoint of ``S`` bit for bit.
    """
    return BiframeSystem(
        measure=system.measure,
        analysis=system.synthesis,
        synthesis=system.analysis,
        target=system.target,
    )


def _as_operator(a, dim: int, name: str = "operator") -> np.ndarray:
    mat = linalg.as_matrix(a, square=True)
    if mat.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} is {mat.shape[0]}x{mat.shape[1]}, system dimension is {dim}"
        )
    return mat


def _map_samples(system: BiframeSystem, u: np.ndarray,
                 target: Sequence[np.ndarray]) -> BiframeSystem:
    """Apply ``u`` to every sampled vector of both families (same measure);
    the new target is the product of ``target``, left to right.  Each is a
    :func:`linalg._product`, one power of two per sample row, so a row far
    below the others keeps its bits, and samples or a target with a nonzero
    row that float64 cannot hold, too large or rounding to 0, raise
    ``OverflowError`` ("the constructed samples or target")."""
    mapped = (linalg._product(*factors, what="the constructed samples or target") for factors in
              ((system.analysis.samples, u.T), (system.synthesis.samples, u.T), target))
    return BiframeSystem.from_samples(system.measure, *mapped)


def gram_target(system: BiframeSystem, c: float = 1.0) -> np.ndarray:
    """``c K K*`` for the system's target ``K`` and ``c >= 0`` (``K K*``, the
    reference PSD matrix the lower bound is measured against, by default):
    the one place the package forms it.

    ``c`` is split by ``frexp`` into a mantissa ``m`` in ``[1/2, 2)`` and an
    even power of two ``4^j``; ``X = sqrt(m) K / 2^e``
    (:func:`linalg._binary_normalised`) is multiplied as ``X X*`` and scaled
    back once by ``4^(j + e)`` (:func:`linalg._ldexp`), so nothing
    overflows on the way to a product that fits, and wherever the plain
    ``(sqrt(c) K)(sqrt(c) K)*`` keeps every entry normal the result is that
    product bit for bit (at ``c = 1``, ``K K*``).  A non-finite ``c``, or a
    product float64 cannot hold, raises ``OverflowError`` naming ``c·KK*``.
    """
    if not math.isfinite(c):
        raise OverflowError(f"c·KK* is not finite for c = {c!r}")
    m, p = math.frexp(c)  # c = m 2^(p % 2) 4^(p // 2)
    k_unit, e = linalg._binary_normalised(system.target)
    x = math.sqrt(m * 2.0 ** (p % 2)) * k_unit
    return linalg._ldexp(x @ linalg.adjoint(x), p - p % 2 + 2 * e, "the entries of c·KK*")


def _tight_defect(system: BiframeSystem, c: float) -> float:
    """``relative_gap(Herm(S), c K K*)``: the one decider of ``Herm(S) = c K
    K*`` (it holds iff this is at most ``tol``), ``inf`` where
    :func:`gram_target` cannot form ``c K K*`` in float64, which a finite
    ``Herm(S)`` then does not equal."""
    herm = _herm_part(system)
    try:
        return linalg.relative_gap(herm, gram_target(system, c))
    except OverflowError:
        return math.inf


def _gram_is_identity(system: BiframeSystem, c: float, scale: float, tol: float) -> bool:
    """Whether ``c K K* = scale I`` at ``tol``, as ``relative_gap(c K K*,
    scale I) <= tol``: the one decider of that equation, which never forms
    ``c / scale``.  A ``c K K*`` that :func:`gram_target` cannot form in
    float64 (a non-finite ``c`` among them) is no multiple of ``I``."""
    try:
        return linalg.relative_gap(gram_target(system, c), scale * np.eye(system.dim)) <= tol
    except OverflowError:
        return False


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


def optimal_bounds(system: BiframeSystem, tol: float = DEFAULT_TOL) -> BoundsReport:
    """Best achievable bound pair for the system against its target.

    The lower constant solves ``max { a : Herm(S) - a K K* >= 0 }``: it is
    ``1 / ||[K* / Herm(S)^{1/2}]||^2`` (:func:`linalg.max_psd_shift`); the
    upper constant is ``lambda_max(Herm(S))``.  Validity means a strictly
    positive lower constant exists.  ``Herm(S)`` is decomposed once per set
    of samples: its spectrum is cached on the system, handed to
    ``max_psd_shift`` (which takes no matrix), and read for both constants
    and the negative-form witness; ``K K*`` is never decomposed.  The
    asymmetry is cached beside it, shared by every ``with_target`` system;
    the shift of each ``tol`` is cached on the system itself, whose target
    it depends on, and dies with it; each report holds fresh copies of the
    cached witnesses.

    Eigensolves per call: 1 on a system whose spectrum is not yet cached,
    whatever the target; 0 once it is.  SVDs per call: the one to three of
    ``max_psd_shift`` for a ``tol`` this system has not yet seen, and the
    two of :func:`linalg.asymmetry` on a cold set of samples; none on a
    repeat.

    A positive lower constant outside the float64 range (a target of
    extreme scale) raises ``OverflowError`` (:func:`linalg.max_psd_shift`).
    """
    eig = _herm_spectrum(system)
    shift = _cached(system, tol, lambda: linalg.max_psd_shift(eig, system.target, tol=tol),
                    shared=False)
    return BoundsReport(
        lower_opt=shift.amount,
        upper_opt=eig.max,
        valid=shift.amount is not None and shift.amount > 0.0,
        witness_lower=None if shift.witness is None else shift.witness.copy(),
        witness_negative_form=None if eig.is_psd(tol) else eig.vectors[:, 0].copy(),
        asymmetry=_cached(system, "asymmetry",
                          lambda: linalg.asymmetry(frame_operator(system))),
        degenerate=shift.degenerate,
    )


def _claim_holds(report: BoundsReport, lower: float | None, upper: float,
                 tol: float) -> tuple[bool, bool]:
    """Whether each side of a claimed pair holds against the optimal pair in
    ``report``: the one rule every bound claim is decided by.

    The lower claim holds iff ``lower_opt`` exists and ``lower <= lower_opt +
    tol * lower_opt`` (always, when ``lower_opt`` is ``inf``); ``None`` claims
    nothing.  The upper claim holds iff ``upper >= upper_opt - tol *
    |upper_opt|``.  Both tolerances are relative to the bound they compare
    against, so scaling the weights and the claim together keeps the verdict.
    """
    a = report.lower_opt
    lower_ok = lower is None or (a is not None and lower <= a + tol * a)
    upper_ok = upper >= report.upper_opt - tol * abs(report.upper_opt)
    return lower_ok, upper_ok


@dataclass(frozen=True, eq=False)
class BoundsVerification:
    """Pass/fail detail for a claimed bound pair.

    ``lower_margin`` is ``lower_opt - lower`` (``lower_opt`` counting as 0 when
    no positive lower constant exists, ``inf`` for a zero target) and
    ``upper_margin`` is ``upper - upper_opt``: both in bound units, negative
    where the claim overshoots the optimum.  ``witness`` is a vector that
    breaks the claim, or ``None`` when the claim holds, and also when a
    lower claim is refuted on a PSD form whose lower constant is within
    tolerance of zero and no such vector is at hand (see
    :func:`check_bounds`)."""

    ok: bool
    lower_ok: bool
    upper_ok: bool
    lower_margin: float
    upper_margin: float
    witness: np.ndarray | None


def check_bounds(system: BiframeSystem, lower: float, upper: float,
                 tol: float = DEFAULT_TOL) -> BoundsVerification:
    """Like :func:`verify_bounds` but with margins and a failing witness.

    The claim is decided against :func:`optimal_bounds`: the lower side holds
    iff a positive ``lower_opt`` exists and ``lower <= lower_opt + tol *
    lower_opt``, the upper side iff ``upper >= upper_opt - tol * |upper_opt|``
    (:func:`_claim_holds`).  So a check costs the eigensolves of
    ``optimal_bounds`` and no more: 1, or 0 once the spectrum of
    ``Herm(S)`` is cached.  A refuted lower claim is witnessed by
    the report's ``witness_lower``: along the tight direction ``w`` of the
    pencil, ``<(Herm S - lower K K*) w, w> = -(lower - lower_opt) ||K* w||^2``,
    and where the form is indefinite ``w`` is the bottom eigenvector of
    ``Herm(S)``.  Where the form is PSD but its positive lower constant
    stays within tolerance of zero, ``w`` is reported only when it refutes
    the claim, ``<Herm S w, w> < lower ||K* w||^2`` (decided on ``K / 2^e``,
    so at any target scale); otherwise the refuted claim carries no witness.
    A refuted upper claim is witnessed by the top eigenvector of ``Herm(S)``.
    A caller that prints the report too (the CLI's ``demo``) pays nothing
    for the second: its spectrum and shift are cached."""
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise MalformedBoundsError("bounds must be finite numbers")
    if not (0.0 < lower <= upper):
        raise MalformedBoundsError(
            f"need 0 < lower <= upper, got lower={lower!r} upper={upper!r}"
        )
    report = optimal_bounds(system, tol=tol)
    lower_ok, upper_ok = _claim_holds(report, lower, upper, tol)
    witness = None
    if not lower_ok:
        witness = report.witness_lower
        if report.lower_opt is None and report.witness_negative_form is None:
            # a PSD form with its lower constant within tolerance of zero:
            # the tight direction is evidence only where it breaks the claim,
            # form < lower ||K* w||^2, decided on K / 2^e so neither side
            # under- or overflows: form / 4^e < lower ||(K / 2^e)* w||^2
            k_unit, e = linalg._binary_normalised(system.target)
            form = np.real(np.vdot(witness, _herm_part(system) @ witness))
            with np.errstate(over="ignore"):  # an infinite form / 4^e refutes nothing
                scaled = np.ldexp(form, -2 * e)
            if not scaled < lower * np.linalg.norm(linalg.adjoint(k_unit) @ witness) ** 2:
                witness = None
    elif not upper_ok:
        witness = _herm_spectrum(system).vectors[:, -1].copy()
    return BoundsVerification(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        lower_margin=(report.lower_opt or 0.0) - lower,
        upper_margin=upper - report.upper_opt,
        witness=witness,
    )


def verify_bounds(system: BiframeSystem, lower: float, upper: float,
                  tol: float = DEFAULT_TOL) -> bool:
    """Whether the pair ``(lower, upper)`` is a valid bound pair: a positive
    optimal lower constant exists and ``lower`` is within it, and ``upper``
    is at least the optimal upper constant, both at relative tolerance
    (see :func:`check_bounds`).  Claims with ``lower <= 0`` or
    ``lower > upper`` are rejected as :class:`MalformedBoundsError`."""
    return check_bounds(system, lower, upper, tol=tol).ok


@dataclass(frozen=True)
class Classification:
    """Structural flags for a system (all measured at tolerance)."""

    families_equal: bool
    tight: bool
    tight_constant: float | None
    parseval: bool
    bessel_only: bool


def classify(system: BiframeSystem, tol: float = DEFAULT_TOL) -> Classification:
    """Structural classification; each equality is ``linalg.relative_gap``.

    * ``families_equal`` -- analysis and synthesis samples coincide;
    * ``tight`` -- valid, with a nonzero target and ``Herm(S) = A K K*`` for
      ``A = lower_opt``, the only constant that can fit; ``tight_constant``;
    * ``parseval`` -- tight with constant 1, ``|A - 1| <= tol``;
    * ``bessel_only`` -- the upper bound is finite (always, here) but no
      positive lower bound exists.
    """
    families_equal = linalg.relative_gap(system.analysis.samples,
                                         system.synthesis.samples) <= tol
    report = optimal_bounds(system, tol=tol)
    a = report.lower_opt
    tight = report.valid and not report.degenerate and _tight_defect(system, a) <= tol
    return Classification(
        families_equal=families_equal,
        tight=tight,
        tight_constant=a if tight else None,
        parseval=tight and abs(a - 1.0) <= tol,
        bessel_only=not report.valid,
    )
