"""Discretised measure spaces.

A sampled system lives on a finite list of nodes, each carrying a label and
a positive weight.  Three constructions cover everything the toolkit needs:
finite partitions (one node per cell, weight = cell mass), Gauss-Legendre
quadrature on an interval, and products of two node sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import InvalidIntervalError, InvalidMassError


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite weighted node set.

    ``ids`` are unique string labels (they survive round-trips through the
    JSON manifest format) and ``weights`` are strictly positive and finite.
    The measure keeps its own read-only copy of the weights.
    """

    ids: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights)
        if weights.dtype.kind == "c":  # a cast would keep the real part
            raise InvalidMassError("node weights must be real, not complex")
        # a private read-only copy: systems cache results derived from it
        weights = np.array(weights, dtype=np.float64, copy=True)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ids", tuple([str(i) for i in self.ids]))
        if weights.ndim != 1:
            raise InvalidMassError("weights must form a 1-D array")
        if len(self.ids) != weights.shape[0]:
            raise InvalidMassError(
                f"{len(self.ids)} ids but {weights.shape[0]} weights"
            )
        if weights.shape[0] == 0:
            raise InvalidMassError("a measure needs at least one node")
        if len(set(self.ids)) != len(self.ids):
            raise InvalidMassError("node ids must be unique")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise InvalidMassError("node weights must be finite and positive")

    @classmethod
    def _from_valid(cls, ids: tuple[str, ...], weights: np.ndarray) -> "DiscreteMeasure":
        """The measure on ``ids`` and ``weights`` that are valid by
        construction, unchecked: unique strings, and a fresh 1-D ``float64``
        array of as many finite positive weights, which it makes read-only
        and keeps uncopied.  A product measure's are, and checking its fresh
        ids again would cost about as much as forming them."""
        weights.flags.writeable = False
        measure = object.__new__(cls)
        object.__setattr__(measure, "ids", ids)
        object.__setattr__(measure, "weights", weights)
        return measure

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def from_partition(masses: Sequence[float], ids: Iterable[str] | None = None) -> DiscreteMeasure:
    """Measure of a finite partition: one node per cell, weight = cell mass."""
    masses = list(masses)
    if ids is None:
        ids = [f"cell-{i + 1}" for i in range(len(masses))]
    return DiscreteMeasure(ids=tuple(ids), weights=np.asarray(masses, dtype=np.float64))


class QuadratureRule(NamedTuple):
    """A discrete measure together with the interval coordinates of its nodes."""

    measure: DiscreteMeasure
    points: np.ndarray


def gauss_legendre(lo: float, hi: float, n: int = 8) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` nodes on ``[lo, hi]``.

    Exact for polynomials of degree ``<= 2n - 1``; the weights sum to the
    interval length.  Node ids are ``gl-1 .. gl-n`` in increasing coordinate
    order.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or not hi > lo:
        raise InvalidIntervalError(f"need a finite interval with lo < hi, got [{lo}, {hi}]")
    if n < 1:
        raise InvalidIntervalError(f"need at least one node, got n={n}")
    base_points, base_weights = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (hi - lo)
    points = half * base_points + 0.5 * (hi + lo)
    weights = half * base_weights
    measure = DiscreteMeasure(
        ids=tuple(f"gl-{i + 1}" for i in range(int(n))),
        weights=weights,
    )
    return QuadratureRule(measure=measure, points=points)


def integrate(rule: QuadratureRule, fn) -> float:
    """Apply ``rule`` to a callable ``fn`` of the interval coordinate."""
    values = np.asarray([fn(x) for x in rule.points], dtype=np.float64)
    return float(rule.measure.weights @ values)


# a backslash before each character that delimits a product id, and before
# the backslash itself, so a product id reads back as one pair of factor ids
_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def product_measure(left: DiscreteMeasure, right: DiscreteMeasure) -> DiscreteMeasure:
    """Product node set in row-major order.

    Node ``(i, j)`` of the product sits at flat index ``i * len(right) + j``
    with weight ``w_i * w'_j`` -- the same ordering the Kronecker product
    uses, so tensor systems can pair their sample lists positionally.  Its
    id is ``(a,b)`` for the factor ids ``a`` and ``b``, each with ``\\``,
    ``,``, ``(`` and ``)`` escaped by a backslash, so distinct pairs get
    distinct ids: unescaped, ``('x,y', 'x')`` and ``('z', 'y,z')`` would
    both pair to ``(x,y,z)``.  The weights are a
    :func:`~biframekit.linalg._kron`, so each is the plain product bit for
    bit wherever it is normal, and a weight that float64 cannot hold, too
    large or one that would round to 0, raises ``OverflowError`` ("the
    product weights lie outside the float64 range"), not a misleading
    :class:`InvalidMassError`.  Unique ids and positive weights make the
    product valid by construction, so it is not checked again.
    """
    heads = [f"({a.translate(_ESCAPES)}," for a in left.ids]
    tails = [f"{b.translate(_ESCAPES)})" for b in right.ids]
    return DiscreteMeasure._from_valid(
        tuple([head + tail for head in heads for tail in tails]),
        linalg._kron(left.weights, right.weights, "the product weights"))
