"""Numerical toolkit for biframe systems on discrete measure spaces.

A biframe system pairs two families of sampled vectors (analysis and
synthesis) with a target operator; the central question is whether the
induced sesquilinear form is squeezed between positive multiples of the
target's Gram form, and with which optimal constants.  The package computes
those constants exactly (up to floating point), refutes false claims with
explicit witnesses, and implements a calculus of constructions — duals,
sums, products, conjugations, perturbations — each shipping with the bound
certificate it guarantees.

Layout: :mod:`biframekit.linalg` (dense Hermitian kernel), :mod:`~.measure`
(weighted nodes and quadrature), :mod:`~.biframe` (systems, forms, optimal
bounds), :mod:`~.opcalc` (construction calculus), :mod:`~.quotient`
(operator quotients and validity cross-checks), :mod:`~.tensor` (product
systems); :mod:`biframekit.app` (manifest files, reference systems, CLI) is
imported only on request (``from biframekit import app``).
"""

from . import biframe, errors, linalg, measure, opcalc, quotient, tensor
from .biframe import (
    BiframeSystem,
    BoundsReport,
    BoundsVerification,
    SampledField,
    analysis,
    biframe_form,
    check_bounds,
    classify,
    frame_operator,
    gram_target,
    optimal_bounds,
    swap,
    synthesis,
    verify_bounds,
)
from .errors import BiframeError
from .measure import DiscreteMeasure, gauss_legendre, product_measure
from .opcalc import ConstructionResult
from .quotient import quotient_norm, transform_equivalences, validity_cross_check
from .tensor import TensorSystem, factor_bounds_check, tensor_system

__version__ = "0.1.0"

__all__ = [
    "BiframeError",
    "BiframeSystem",
    "BoundsReport",
    "BoundsVerification",
    "ConstructionResult",
    "DiscreteMeasure",
    "SampledField",
    "TensorSystem",
    "analysis",
    "biframe",
    "biframe_form",
    "check_bounds",
    "classify",
    "errors",
    "factor_bounds_check",
    "frame_operator",
    "gauss_legendre",
    "gram_target",
    "linalg",
    "measure",
    "opcalc",
    "optimal_bounds",
    "product_measure",
    "quotient",
    "quotient_norm",
    "swap",
    "synthesis",
    "tensor",
    "tensor_system",
    "transform_equivalences",
    "validity_cross_check",
    "verify_bounds",
    "__version__",
]
