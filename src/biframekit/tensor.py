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
from .linalg import DEFAULT_TOL, _kron
from .measure import product_measure


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor major.

    ``kron(a, b)[i*rows(b) + j, k*cols(b) + l] = a[i, k] * b[j, l]``.  The
    product is norm-multiplicative, respects composition factorwise
    (``(A (x) B)(C (x) D) = AC (x) BD``), commutes with adjoints, and is
    invertible exactly when both factors are.

    It is :func:`~biframekit.linalg._kron`: each row of each factor divided
    by its own power of two, and row ``(i, j)`` scaled back once by
    ``2^(r_i + r'_j)``.  So it is ``numpy.kron`` bit for bit wherever that
    division, and the plain products, keep every entry normal, a row far
    below the others keeps its bits, an entry more than ``2^1074`` below its
    row's top still rounds to 0, and a product with a nonzero row that
    float64 cannot hold, too large or rounding to 0, raises
    ``OverflowError`` ("the Kronecker product's entries lie outside the
    float64 range"), never an ``inf``, a false 0 or a ``RuntimeWarning``.
    """
    return _kron(a, b, "the Kronecker product's entries")


@dataclass(frozen=True, eq=False)
class TensorSystem:
    """A combined biframe system remembering its two factors."""

    left: BiframeSystem
    right: BiframeSystem
    combined: BiframeSystem


def tensor_system(s1: BiframeSystem, s2: BiframeSystem) -> TensorSystem:
    """Combine two systems on the Kronecker coordinate space.

    Sample families, weights and targets all combine by Kronecker product
    (:func:`kron`, :func:`~biframekit.measure.product_measure`); in
    particular the combined frame operator is ``S1 (x) S2``.  Each product
    takes one power of two per row, so it is ``numpy.kron`` bit for bit
    wherever that division, and the plain products, keep every entry
    normal, and a product with a nonzero row (a node's samples or weight)
    that float64 cannot hold raises ``OverflowError`` ("... outside the
    float64 range").  The factors' bound pairs do not
    multiply into a valid pair in general: with
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
