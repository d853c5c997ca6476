"""Tensor (Kronecker) products of biframe systems.

The tensor space of two coordinate spaces is realized concretely as the
Kronecker coordinate space of dimension ``d1*d2``, with the left factor
major: the pair ``(a, b)`` lands at flat index ``a*d2 + b``.  The node set
of a combined system uses the same convention through
:func:`~biframekit.measure.product_measure`, so every structural law
(``S_combined = S1 (x) S2``, norm multiplicativity, bound products) is a
plain matrix identity in these coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biframe import BiframeSystem, BoundsReport, _claim_holds, optimal_bounds
from .errors import FieldMismatchError, NotABiframeError
from .linalg import DEFAULT_TOL
from .measure import product_measure


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor major.

    ``kron(a, b)[i*rows(b) + j, k*cols(b) + l] = a[i, k] * b[j, l]``.  The
    product is norm-multiplicative, respects composition factorwise
    (``(A (x) B)(C (x) D) = AC (x) BD``), commutes with adjoints, and is
    invertible exactly when both factors are.
    """
    return np.kron(np.asarray(a), np.asarray(b))


@dataclass(frozen=True, eq=False)
class TensorSystem:
    """A combined biframe system remembering its two factors."""

    left: BiframeSystem
    right: BiframeSystem
    combined: BiframeSystem


def tensor_system(s1: BiframeSystem, s2: BiframeSystem) -> TensorSystem:
    """Combine two systems on the Kronecker coordinate space.

    Sample families, weights and targets all combine by Kronecker product;
    in particular the combined frame operator is ``S1 (x) S2``.  The factors'
    bound pairs do not multiply into a valid pair in general: with
    ``S = H + iJ`` (``H``, ``J`` Hermitian), ``Herm(S1 (x) S2) = H1 (x) H2 -
    J1 (x) J2``, so :func:`product_law` is a theorem only when one factor is
    self-adjoint.
    """
    if s1.field_name != s2.field_name:
        raise FieldMismatchError(
            f"cannot combine a {s1.field_name} system with a {s2.field_name} one"
        )
    return TensorSystem(
        left=s1,
        right=s2,
        combined=BiframeSystem.from_samples(
            product_measure(s1.measure, s2.measure),
            kron(s1.analysis.samples, s2.analysis.samples),
            kron(s1.synthesis.samples, s2.synthesis.samples),
            kron(s1.target, s2.target),
        ),
    )


def factor_bounds_check(ts: TensorSystem, *, tol: float = DEFAULT_TOL) -> bool:
    """Check that optimal bounds of a combined system multiply from its factors
    (:func:`product_law` on the three optimal bound reports)."""
    return product_law(*(optimal_bounds(s, tol=tol) for s in (ts.left, ts.right, ts.combined)),
                       tol=tol)


def product_law(left: BoundsReport, right: BoundsReport, combined: BoundsReport, *,
                tol: float = DEFAULT_TOL) -> bool:
    """Whether a combined system's optimal bounds multiply from its factors':
    the pair ``(lower_opt(left) * lower_opt(right), upper_opt(left) *
    upper_opt(right))`` holds against ``combined`` by the claim rule of
    :func:`~biframekit.biframe.check_bounds`.
    It is a theorem only when one factor is self-adjoint; skew parts enter
    the combined Hermitian part as ``-J1 (x) J2`` (see :func:`tensor_system`).

    All three systems must be valid (otherwise :class:`NotABiframeError`).
    """
    for report, what in ((combined, "combined system"), (left, "left factor"),
                         (right, "right factor")):
        if not report.valid:
            raise NotABiframeError(f"{what} is not valid against its target")
    return all(_claim_holds(combined, left.lower_opt * right.lower_opt,
                            left.upper_opt * right.upper_opt, tol))
