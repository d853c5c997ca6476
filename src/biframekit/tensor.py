"""Tensor (Kronecker) products of biframe systems.

The tensor space of two coordinate spaces is realized concretely as the
Kronecker coordinate space of dimension ``d1*d2``, with the left factor
major: the pair ``(a, b)`` lands at flat index ``a*d2 + b``.  The node set
of a combined system uses the same convention through
:func:`~biframekit.measure.product_measure`, so every structural law
(``S_combined = S1 (x) S2``, norm multiplicativity, bound products) is a
plain matrix identity in these coordinates.

A combined system is formed from its factors: its weights and target are
Kronecker products, its sample families are formed from the factors'
only when read, and its frame operator is ``S1 (x) S2`` of the factors'
own (:func:`~biframekit.biframe.frame_operator`), never a sum over the
``n1*n2`` product nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .biframe import BiframeSystem, BoundsReport, SampledField, _claim_holds, optimal_bounds
from .errors import FieldMismatchError, NotABiframeError
from .linalg import DEFAULT_TOL
from .measure import product_measure


_PRODUCT = "the Kronecker product's entries"


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
    return linalg._kron(a, b, _PRODUCT)


class _ProductField(SampledField):
    """The sampled field ``left (x) right`` on the product of the factors'
    node sets: node ``(i, j)``, at ``i * right.nodes + j``, samples
    ``left_i (x) right_j``.  Its node count, dimension and scalar field are
    read off the factors; its samples are formed by :func:`kron` each time
    they are read, read-only, and not kept.  The factors' samples must make
    a product float64 can hold (``linalg._kron_split`` decides it)."""

    def __init__(self, left: SampledField, right: SampledField):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def samples(self) -> np.ndarray:
        product = kron(self.left.samples, self.right.samples)
        product.flags.writeable = False
        return product

    @property
    def nodes(self) -> int:
        return self.left.nodes * self.right.nodes

    @property
    def dim(self) -> int:
        return self.left.dim * self.right.dim

    @property
    def is_complex(self) -> bool:
        return self.left.is_complex


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
    particular the combined frame operator is ``S1 (x) S2``, and it is
    formed so, from the factors' ``S`` on first use
    (:func:`~biframekit.biframe.frame_operator`).  The weights and the
    target are formed here; the sample families are formed from the
    factors' only when read, and not kept.  Each product takes one power of
    two per row, so it is ``numpy.kron`` bit for bit wherever that
    division, and the plain products, keep every entry normal, and a
    product with a nonzero row (a node's samples or weight) that float64
    cannot hold raises ``OverflowError`` ("... outside the float64 range")
    here, decided for the samples from the factor rows' powers of two
    without forming them.  The parts are products of valid parts, so the
    combined system is not checked again.  The factors' bound pairs do not
    multiply into a valid pair in general: with
    ``S = H + iJ`` (``H``, ``J`` Hermitian), ``Herm(S1 (x) S2) = H1 (x) H2 -
    J1 (x) J2``, so :func:`product_law` is a theorem only when one factor is
    self-adjoint.
    """
    if s1.field_name != s2.field_name:
        raise FieldMismatchError(
            f"cannot combine a {s1.field_name} system with a {s2.field_name} one"
        )
    measure = product_measure(s1.measure, s2.measure)
    fields = []
    for a, b in ((s1.analysis, s2.analysis), (s1.synthesis, s2.synthesis)):
        linalg._kron_split(a.samples, b.samples, _PRODUCT)  # raises where float64 cannot hold it
        fields.append(_ProductField(a, b))
    combined = BiframeSystem._from_valid(measure, *fields, kron(s1.target, s2.target),
                                         factors=(s1, s2))
    return TensorSystem(left=s1, right=s2, combined=combined)


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
