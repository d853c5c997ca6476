"""Shared random generators and reference implementations for the test suite.

The references (``bisection_shift``, ``reference_dumps``,
``reference_parse_matrix``) are the slower, plainer algorithms that the
library's fast paths must agree with.  Everything random takes an explicit ``numpy.random.Generator`` so tests stay
reproducible; seeds are fixed in the tests themselves.
"""

from __future__ import annotations

import json
import math

import numpy as np

from biframekit import BiframeSystem, DiscreteMeasure
from biframekit.app import FORMAT_VERSION
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


def _psd_up_to_roundoff(m: np.ndarray) -> bool:
    # Cholesky of m + 1e-14*scale*I: the cushion absorbs round-off only, so
    # the bisection finds the exact supremum rather than a tolerance-relaxed
    # one (a cushion of tol*scale overshoots by tol*||s|| / <p v, v> along a
    # null direction v of s that p barely sees, which can pass as a shift)
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    try:
        np.linalg.cholesky(m + (1e-14 * scale) * np.eye(m.shape[0], dtype=m.dtype))
    except np.linalg.LinAlgError:
        return False
    return True


def bisection_shift(s: np.ndarray, p: np.ndarray, tol: float = 1e-9) -> float | None:
    """Independent reference for ``linalg.max_psd_shift``'s amount.

    Bisects ``a`` on the Cholesky predicate "``s - a*p`` is PSD up to
    round-off" over the rigorous bracket ``[0, lambda_max(s) / lambda_min^+(p)]``
    (widened while the tolerance-relaxed set pokes past it), then polishes
    with the Rayleigh quotient of the tight eigenvector.  Uses LAPACK
    (``numpy.linalg.eigh``) where the library uses its own eigensolver.
    Returns ``None`` when no shift above ``tol`` exists and ``math.inf``
    when ``p`` vanishes and ``s`` is PSD.
    """
    s_vals = np.linalg.eigvalsh(s)
    p_vals = np.linalg.eigvalsh(p)
    s_is_psd = s_vals[0] >= -tol * max(1.0, float(np.max(np.abs(s_vals))))
    p_max = float(p_vals[-1])
    if p_max <= tol * max(1.0, p_max):
        return math.inf if s_is_psd else None
    if not s_is_psd:
        return None

    lam_plus = float(p_vals[p_vals > 1e-12 * p_max][0])
    lo, hi = 0.0, max(max(float(s_vals[-1]), 0.0) / lam_plus, tol)
    for _ in range(8):
        if not _psd_up_to_roundoff(s - hi * p):
            break
        lo, hi = hi, 2.0 * hi
    else:
        lo = hi
    if lo < hi:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _psd_up_to_roundoff(s - mid * p):
                lo = mid
            else:
                hi = mid

    amount = lo
    witness = np.linalg.eigh(s - amount * p)[1][:, 0]
    denom = float(np.real(np.conj(witness) @ (p @ witness)))
    if denom > 1e-12 * p_max:
        # s is PSD, so a negative quotient is round-off of an exact zero
        candidate = max(float(np.real(np.conj(witness) @ (s @ witness))) / denom, 0.0)
        if abs(candidate - amount) <= 1e-6 * max(1.0, amount) and _psd_up_to_roundoff(s - candidate * p):
            amount = candidate
    return None if amount <= tol else amount


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
        return complex(value) if complex_field else float(value)
    if complex_field and isinstance(value, list) and len(value) == 2 \
            and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value):
        return complex(float(value[0]), float(value[1]))
    expected = "a number or [re, im] pair" if complex_field else "a number"
    raise ManifestValidationError(f"{where}: expected {expected}, got {value!r}")


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
