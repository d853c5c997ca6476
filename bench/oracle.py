"""Independent output checks for the benchmark.

Every expectation here is derived from the raw arrays the benchmark generated,
with LAPACK (``numpy.linalg.eigvalsh`` / ``cholesky``), never from the
program's own results.  The program's verdicts come from a cyclic-Jacobi
eigensolver and a bisection, so agreement is a real cross-check.

All thresholds are relative to the problem's own norm, so a verdict the
oracle gives is the same for a system and for the same system with its
weights scaled by any positive constant.
"""

from __future__ import annotations

import warnings

import numpy as np

#: Relative bracket around a reported optimal lower bound ``a``: the oracle
#: requires ``H - a(1-EPS)P`` PSD and ``H - a(1+EPS)P`` not PSD.
EPS = 1e-6
#: PSD decisions: ``lambda_min >= -PSD_TOL * scale``.
PSD_TOL = 1e-12
#: Relative agreement required of reported eigenvalue quantities.
REL = 1e-6
#: A tensor law (or any decision against a threshold) whose margin is below
#: this share of its scale is too close to call in floating point.
AMBIGUOUS = 1e-6


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def frame_op(f: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``S = sum_i w_i G_i F_i*`` from the sample rows."""
    return g.T @ (w[:, None] * np.conj(f))


def herm(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) / 2.0


def gram(k: np.ndarray) -> np.ndarray:
    return k @ adjoint(k)


def lam_min(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(herm(m))[0])


def lam_max(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(herm(m))[-1])


def norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def is_psd(m: np.ndarray, scale: float) -> bool:
    return lam_min(m) >= -PSD_TOL * scale


def definiteness(h: np.ndarray) -> float:
    """``lambda_min(H) / ||H||``: positive for a valid system's Hermitian part."""
    return lam_min(h) / max(norm2(h), np.finfo(float).tiny)


def lower_opt(h: np.ndarray, p: np.ndarray) -> float | None:
    """``max {a : H - aP >= 0}`` for positive definite ``H`` (None otherwise).

    With ``H = L L*``, ``H - aP >= 0`` iff ``a * lambda_max(L^-1 P L^-*) <= 1``.
    """
    if definiteness(h) <= 1e-10:
        return None
    chol = np.linalg.cholesky(h)
    half = np.linalg.solve(chol, p)
    reduced = np.linalg.solve(chol, adjoint(half))
    top = lam_max(reduced)
    return float("inf") if top <= 0.0 else 1.0 / top


def bounds(h: np.ndarray, p: np.ndarray) -> tuple[float | None, float]:
    return lower_opt(h, p), lam_max(h)


def lower_bracket_ok(h: np.ndarray, p: np.ndarray, a: float) -> bool:
    """Whether a reported optimal lower bound ``a`` is right to ``EPS``."""
    scale = norm2(h) + a * norm2(p)
    below = lam_min(h - a * (1.0 - EPS) * p) >= -PSD_TOL * scale
    above = lam_min(h - a * (1.0 + EPS) * p) < 0.0
    return below and above


def close(x, y, rel: float = REL, scale: float | None = None) -> bool:
    if x is None or y is None:
        return x is None and y is None
    ref = max(abs(x), abs(y)) if scale is None else scale
    return abs(x - y) <= rel * max(ref, np.finfo(float).tiny)


def claim_holds(h: np.ndarray, p: np.ndarray, lower: float, upper: float) -> bool:
    """Whether ``lower ||K* f||^2 <= Re form(f) <= upper ||f||^2`` for all f."""
    scale = norm2(h) + abs(lower) * norm2(p) + abs(upper)
    eye = np.eye(h.shape[0])
    return is_psd(h - lower * p, scale) and is_psd(upper * eye - h, scale)


def form_at(system, w: np.ndarray) -> float:
    """The program's direct-sum form at ``w`` (its non-self-adjoint warning
    is expected for asymmetric systems and carries no verdict)."""
    from biframekit import biframe

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return biframe.biframe_form(system, w)


def refutes(system, w, lower: float, upper: float, h: np.ndarray, p: np.ndarray) -> bool:
    """Whether ``w`` breaks the claimed pair, re-evaluated through the form."""
    if w is None:
        return False
    w = np.asarray(w)
    if not np.all(np.isfinite(w)) or np.linalg.norm(w) == 0.0:
        return False
    value = form_at(system, w)
    k_norm_sq = float(np.real(np.vdot(w, p @ w)))
    w_norm_sq = float(np.real(np.vdot(w, w)))
    slack = PSD_TOL * (norm2(h) + abs(lower) * norm2(p) + abs(upper)) * w_norm_sq
    return value < lower * k_norm_sq - slack or value > upper * w_norm_sq + slack


def negative_form(system, w, h: np.ndarray) -> bool:
    """Whether ``w`` is a direction where the form is negative."""
    if w is None:
        return False
    w = np.asarray(w)
    value = form_at(system, w)
    return value < -PSD_TOL * norm2(h) * float(np.real(np.vdot(w, w)))


def vector_from_json(v) -> np.ndarray | None:
    """Inverse of the CLI's vector encoding (complex entries as ``[re, im]``)."""
    if v is None:
        return None
    if v and isinstance(v[0], list):
        return np.array([complex(re, im) for re, im in v])
    return np.array(v, dtype=float)


def matrix_from_json(rows, complex_field: bool) -> np.ndarray:
    if complex_field:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    return np.array(rows, dtype=float)
