"""Shared random generators and reference implementations for the test suite.

The references (``bisection_shift``, ``reference_optimal_bounds``,
``reference_check_bounds``, ``reference_dumps``, ``reference_parse_matrix``)
are the slower, plainer algorithms that the library's fast paths must agree
with.  Everything random takes an explicit ``numpy.random.Generator`` so
tests stay reproducible; seeds are fixed in the tests themselves.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from biframekit import BiframeSystem, DiscreteMeasure, linalg
from biframekit.app import FORMAT_VERSION
from biframekit.biframe import BoundsReport, BoundsVerification, frame_operator, gram_target
from biframekit.errors import ManifestValidationError


def random_measure(rng: np.random.Generator, nodes: int) -> DiscreteMeasure:
    weights = rng.uniform(0.2, 3.0, size=nodes)
    return DiscreteMeasure(tuple(f"n{i}" for i in range(nodes)), weights)


def random_matrix(rng: np.random.Generator, rows: int, cols: int,
                  complex_: bool = False) -> np.ndarray:
    m = rng.normal(size=(rows, cols))
    if complex_:
        m = m + 1j * rng.normal(size=(rows, cols))
    return m


def random_target(rng: np.random.Generator, dim: int, complex_: bool = False,
                  rank: int | None = None) -> np.ndarray:
    """Random target operator, optionally of prescribed rank."""
    k = random_matrix(rng, dim, dim, complex_)
    if rank is not None and rank < dim:
        if rank == 0:
            return np.zeros_like(k)
        a = random_matrix(rng, dim, rank, complex_)
        b = random_matrix(rng, rank, dim, complex_)
        k = a @ b
    return k


def random_psd(rng: np.random.Generator, dim: int, complex_: bool = False,
               rank: int | None = None) -> np.ndarray:
    cols = dim if rank is None else max(rank, 0)
    if cols == 0:
        dtype = np.complex128 if complex_ else np.float64
        return np.zeros((dim, dim), dtype=dtype)
    a = random_matrix(rng, dim, cols, complex_)
    return a @ a.conj().T


def random_system(rng: np.random.Generator, dim: int, *, complex_: bool = False,
                  nodes: int | None = None, target: np.ndarray | None = None) -> BiframeSystem:
    """Generic system; the two families are independent, so the frame operator
    is typically non-Hermitian and nothing guarantees validity."""
    if nodes is None:
        nodes = int(rng.integers(dim, 2 * dim + 3))
    measure = random_measure(rng, nodes)
    f = random_matrix(rng, nodes, dim, complex_)
    g = random_matrix(rng, nodes, dim, complex_)
    if target is None:
        target = random_target(rng, dim, complex_)
    elif complex_ and not np.iscomplexobj(target):
        target = np.asarray(target).astype(np.complex128)
    return BiframeSystem.from_samples(measure, f, g, target)


def random_valid_system(rng: np.random.Generator, dim: int, *, complex_: bool = False,
                        nodes: int | None = None, target: np.ndarray | None = None,
                        asym: float = 0.0) -> BiframeSystem:
    """System whose Hermitian part is safely positive definite.

    With ``asym = 0`` the families coincide (so ``S = F* W F`` is PSD and,
    with ``nodes >= dim`` rows in general position, positive definite).  A
    positive ``asym`` shears the synthesis family; the shear is rescaled
    until the Hermitian part keeps a healthy bottom eigenvalue, so validity
    survives for every target.
    """
    if nodes is None:
        nodes = int(rng.integers(dim + 1, 2 * dim + 4))
    measure = random_measure(rng, nodes)
    f = random_matrix(rng, nodes, dim, complex_)
    # Guard against accidentally ill-conditioned draws.
    f += 0.3 * np.eye(nodes, dim, dtype=f.dtype)
    g = f
    if asym > 0.0:
        shear = asym * random_matrix(rng, nodes, dim, complex_)
        for _ in range(8):
            s = (f + shear).T @ (measure.weights[:, None] * np.conj(f))
            herm = (s + s.conj().T) / 2.0
            if np.linalg.eigvalsh(herm).min() > 1e-3:
                break
            shear *= 0.5
        g = f + shear
    if target is None:
        target = random_target(rng, dim, complex_)
    elif complex_ and not np.iscomplexobj(target):
        target = np.asarray(target).astype(np.complex128)
    return BiframeSystem.from_samples(measure, f, g, target)


def _psd_up_to_roundoff(s: np.ndarray, p: np.ndarray, a: float) -> bool:
    # Cholesky of s - a*p + 1e-14*(||s|| + a||p||)*I: the cushion absorbs the
    # round-off of forming s - a*p only, so the bisection finds the exact
    # supremum rather than a tolerance-relaxed one (a cushion of tol*||s||
    # overshoots by tol*||s|| / <p v, v> along a null direction v of s that p
    # barely sees, which can pass as a shift)
    scale = float(np.linalg.norm(s, 2)) + a * float(np.linalg.norm(p, 2))
    try:
        np.linalg.cholesky(s - a * p + (1e-14 * scale) * np.eye(s.shape[0], dtype=s.dtype))
    except np.linalg.LinAlgError:
        return False
    return True


def bisection_shift(s: np.ndarray, p: np.ndarray, tol: float = 1e-9) -> float | None:
    """Independent reference for ``linalg.max_psd_shift``'s amount, with the
    reference ``p = k k*`` formed.

    Bisects ``a`` on the Cholesky predicate "``s - a*p`` is PSD up to
    round-off" over the rigorous bracket ``[0, lambda_max(s) / lambda_min^+(p)]``
    (widened while the round-off cushion pokes past it), then polishes with
    the Rayleigh quotient of the tight eigenvector.  Uses LAPACK
    (``numpy.linalg.eigh``) where the library uses its own eigensolver.
    Every threshold is relative to ``||s||`` or ``||p||``, as the library's:
    ``s`` is PSD when ``lambda_min(s) >= -tol * max|lambda(s)|``, ``p``
    vanishes only when it is exactly zero, and a shift counts as none when
    ``amount * lambda_max(p) <= tol * max|lambda(s)|``.  Returns ``None``
    when no shift above that cutoff exists and ``math.inf`` when ``p``
    vanishes and ``s`` is PSD.
    """
    s_vals = np.linalg.eigvalsh(s)
    p_vals = np.linalg.eigvalsh(p)
    s_cutoff = tol * float(np.max(np.abs(s_vals)))
    s_is_psd = s_vals[0] >= -s_cutoff
    if not np.any(p):
        return math.inf if s_is_psd else None
    if not s_is_psd:
        return None

    p_max = float(p_vals[-1])
    lam_plus = float(p_vals[p_vals > 1e-12 * p_max][0])
    lo, hi = 0.0, max(float(s_vals[-1]), 0.0) / lam_plus
    for _ in range(8):
        if hi == 0.0 or not _psd_up_to_roundoff(s, p, hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        lo = hi
    if lo < hi:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _psd_up_to_roundoff(s, p, mid):
                lo = mid
            else:
                hi = mid

    amount = lo
    witness = np.linalg.eigh(s - amount * p)[1][:, 0]
    denom = float(np.real(np.conj(witness) @ (p @ witness)))
    if denom > 1e-12 * p_max:
        # s is PSD, so a negative quotient is round-off of an exact zero
        candidate = max(float(np.real(np.conj(witness) @ (s @ witness))) / denom, 0.0)
        if abs(candidate - amount) <= 1e-6 * amount and _psd_up_to_roundoff(s, p, candidate):
            amount = candidate
    return None if amount * p_max <= s_cutoff else amount


def reference_optimal_bounds(system: BiframeSystem, tol: float = linalg.DEFAULT_TOL) -> BoundsReport:
    """Independent reference for ``optimal_bounds``'s assembly: decomposes
    ``Herm(S)`` itself, apart from the system's cached spectrum, and reads
    the upper constant, the negative-form witness and (through
    ``max_psd_shift``) the lower constant from that decomposition."""
    s = frame_operator(system)
    eig = linalg.hermitian_eigen(linalg.hermitian_part(s), tol=tol)
    shift = linalg.max_psd_shift(eig, system.target, tol=tol)
    return BoundsReport(
        lower_opt=shift.amount,
        upper_opt=eig.max,
        valid=shift.amount is not None and shift.amount > 0.0,
        witness_lower=shift.witness,
        witness_negative_form=None if eig.is_psd(tol) else eig.vectors[:, 0].copy(),
        asymmetry=linalg.asymmetry(s),
        degenerate=shift.degenerate,
    )


def reference_check_bounds(system: BiframeSystem, lower: float, upper: float,
                           tol: float = linalg.DEFAULT_TOL) -> BoundsVerification:
    """Independent reference for ``check_bounds`` on a well-formed claim:
    decomposes ``Herm(S) - lower K K*`` and ``upper I - Herm(S)`` separately,
    whatever the target, and reads each margin and witness from the bottom
    eigenpair of its own matrix."""
    herm = linalg.hermitian_part(frame_operator(system))
    gram = gram_target(system)
    herm_norm = float(np.linalg.norm(herm))
    low = linalg.hermitian_eigen(linalg.hermitian_part(herm - lower * gram), tol=tol)
    up = linalg.hermitian_eigen(upper * np.eye(system.dim, dtype=herm.dtype) - herm, tol=tol)
    lower_ok = low.min >= -tol * (herm_norm + lower * float(np.linalg.norm(gram)))
    upper_ok = up.min >= -tol * (upper + herm_norm)
    failed = low if not lower_ok else up if not upper_ok else None
    return BoundsVerification(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        lower_margin=low.min,
        upper_margin=up.min,
        witness=None if failed is None else failed.vectors[:, 0].copy(),
    )


def _reference_emit(value, complex_field: bool):
    if complex_field:
        value = complex(value)
        return [value.real, value.imag]
    return float(value)


def reference_dumps(system: BiframeSystem, *, claimed_bounds=None,
                    label: str | None = None) -> str:
    """Independent reference for ``manifest.dumps``.

    Builds the manifest document and hands it to ``json.dumps`` with
    ``sort_keys=True, indent=2``, whose output defines the canonical layout;
    with ``indent`` set, ``json`` runs its pure-Python encoder.
    """
    complex_field = system.field_name == "complex"

    def emit_matrix(mat):
        return [[_reference_emit(v, complex_field) for v in row] for row in np.asarray(mat)]

    doc = {
        "format_version": FORMAT_VERSION,
        "field": system.field_name,
        "dim": system.dim,
        "measure": [
            {"id": node_id, "weight": float(weight)}
            for node_id, weight in zip(system.measure.ids, system.measure.weights)
        ],
        "F": emit_matrix(system.analysis.samples),
        "G": emit_matrix(system.synthesis.samples),
        "K": emit_matrix(system.target),
    }
    if claimed_bounds is not None:
        doc["claimed_bounds"] = [float(claimed_bounds[0]), float(claimed_bounds[1])]
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _reference_scalar(value, complex_field: bool, where: str) -> complex | float:
    if isinstance(value, bool):
        raise ManifestValidationError(f"{where}: booleans are not numbers")
    if isinstance(value, (int, float)):
        parts = [value, 0]
    elif complex_field and isinstance(value, list) and len(value) == 2 \
            and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value):
        parts = value
    else:
        expected = "a number or [re, im] pair" if complex_field else "a number"
        raise ManifestValidationError(f"{where}: expected {expected}, got {value!r}")
    # ints compare exactly with floats, so this spots the ones float() cannot hold
    if any(abs(p) > sys.float_info.max for p in parts if isinstance(p, int)):
        raise ManifestValidationError(f"{where}: an integer beyond the float range")
    return complex(float(parts[0]), float(parts[1])) if complex_field else float(value)


def reference_parse_matrix(rows, n_rows: int, n_cols: int, complex_field: bool,
                           name: str) -> np.ndarray:
    """Independent reference for ``manifest._parse_matrix``: checks and
    converts one entry at a time, in row-major order."""
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise ManifestValidationError(f"{name}: expected {n_rows} rows")
    out = np.zeros((n_rows, n_cols), dtype=np.complex128 if complex_field else np.float64)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_cols:
            raise ManifestValidationError(f"{name}[{i}]: expected a row of {n_cols} entries")
        for j, value in enumerate(row):
            out[i, j] = _reference_scalar(value, complex_field, f"{name}[{i}][{j}]")
    return out
