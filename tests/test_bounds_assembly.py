"""``optimal_bounds`` and ``check_bounds`` decompose ``Herm(S)`` once.

``optimal_bounds`` hands the cached spectrum of ``Herm(S)`` to
``max_psd_shift`` for its PSD gate, and reads the upper constant and the
negative-form witness from the same spectrum.  ``hermitian_part`` is exactly
Hermitian, so that spectrum is, bit for bit, the one a second decomposition
would build: the report must equal the reference assembly exactly, and cost
one eigensolve less.

``K K*`` itself is never decomposed, and neither is a pencil:
``max_psd_shift`` reads the lower constant ``1 / ||[K* / H^{1/2}]||^2`` off
that same spectrum, so every kind of target (identity, dense or
rank-deficient) costs one eigensolve, ``Herm(S)``'s.  ``check_bounds``
decides a claim from ``optimal_bounds`` and costs what it costs; it must
agree with the reference that decomposes both of its shifted matrices
wherever the claim is clear of the tolerance band.  The counts are those of
a system whose spectrum of ``Herm(S)`` is not yet cached; once it is, each
call makes none.
"""

import warnings

import numpy as np
import pytest

from biframekit import (
    BiframeSystem,
    DiscreteMeasure,
    check_bounds,
    classify,
    linalg,
    opcalc,
    optimal_bounds,
)
from biframekit.biframe import NonSelfAdjointWarning, biframe_form, frame_operator, gram_target
from helpers import (
    random_matrix,
    random_target,
    random_valid_system,
    reference_check_bounds,
    reference_optimal_bounds,
)


def _system(seed: int, *, complex_: bool, target: str, valid: bool, dim: int = 4) -> BiframeSystem:
    rng = np.random.default_rng(seed)
    k = {
        "identity": lambda: np.eye(dim),
        "dense": lambda: random_target(rng, dim, complex_),
        "rank-deficient": lambda: random_target(rng, dim, complex_, rank=dim - 2),
    }[target]()
    system = random_valid_system(rng, dim, complex_=complex_, target=k, asym=0.3)
    if valid:
        return system
    # G = D F with D = diag(1, ..., 1, -1) makes Herm(S) = (D M + M D) / 2 for
    # a positive definite M, whose last diagonal entry -M_nn is negative
    flip = np.r_[np.ones(dim - 1), -1.0]
    f = system.analysis.samples
    return BiframeSystem.from_samples(system.measure, f, f * flip, system.target)


def _scaled(system: BiframeSystem, c: float) -> BiframeSystem:
    return BiframeSystem(
        measure=DiscreteMeasure(system.measure.ids, c * system.measure.weights),
        analysis=system.analysis,
        synthesis=system.synthesis,
        target=system.target,
    )


def _same_vector(got, want) -> bool:
    return got is None and want is None or (
        got is not None and want is not None and np.array_equal(got, want))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("target", ["identity", "dense", "rank-deficient"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "indefinite"])
def test_report_equals_the_two_decomposition_assembly_bit_for_bit(seed, complex_, target, valid):
    # dims 2..5; at dim 2 the rank-deficient target is zero (the degenerate case)
    base = _system(seed, complex_=complex_, target=target, valid=valid, dim=2 + seed)
    report = optimal_bounds(base)  # the draw is the kind it claims
    assert report.valid is valid and (report.witness_negative_form is None) is valid
    for exponent in range(-12, 13):
        system = _scaled(base, 10.0 ** exponent)
        got, want = optimal_bounds(system), reference_optimal_bounds(system)
        assert got.lower_opt == want.lower_opt
        assert got.upper_opt == want.upper_opt
        assert got.valid == want.valid
        assert got.asymmetry == want.asymmetry
        assert got.degenerate == want.degenerate
        assert _same_vector(got.witness_lower, want.witness_lower)
        assert _same_vector(got.witness_negative_form, want.witness_negative_form)


def _counting(monkeypatch) -> list:
    """Every matrix ``hermitian_eigen`` is handed from now on, in order."""
    seen = []
    real = linalg.hermitian_eigen

    def counted(a, *args, **kwargs):
        seen.append(np.array(a, copy=True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigen", counted)
    return seen


@pytest.mark.parametrize("target, valid, calls", [
    # Herm(S) only: the lower constant is read off its spectrum
    ("dense", True, 1),
    # Herm(S) fails the PSD gate
    ("dense", False, 1),
    # a null space of K* costs nothing more
    ("rank-deficient", True, 1),
    ("rank-deficient", False, 1),
    ("identity", True, 1),
    ("identity", False, 1),
])
def test_optimal_bounds_eigensolve_count(monkeypatch, target, valid, calls):
    system = _system(11, complex_=False, target=target, valid=valid)
    count = _counting(monkeypatch)
    report = optimal_bounds(system)
    assert report.valid is valid
    assert len(count) == calls


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("target", ["identity", "dense", "rank-deficient"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "indefinite"])
def test_no_bound_computation_decomposes_the_gram_target(monkeypatch, target, valid, complex_):
    system = _system(7, complex_=complex_, target=target, valid=valid, dim=5)
    gram = gram_target(system)
    u = system.target @ random_matrix(np.random.default_rng(3), 5, 5, complex_)
    seen = _counting(monkeypatch)
    assert optimal_bounds(system).valid is valid
    classify(system)
    opcalc.max_transfer_ratio(system, u)
    # Herm(S), decomposed once and cached; the transfer ratio is a quotient
    # norm, read off SVDs
    assert len(seen) == 1
    for m in seen:
        assert m.shape != gram.shape or not np.allclose(m, gram, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("target, valid, calls", [
    ("identity", True, 1),
    ("dense", True, 1),
    ("rank-deficient", True, 1),
    ("dense", False, 1),
])
def test_check_bounds_eigensolve_count(monkeypatch, target, valid, calls):
    fresh = _system(11, complex_=False, target=target, valid=valid)
    warm = _system(11, complex_=False, target=target, valid=valid)
    report = optimal_bounds(warm)
    claim = ((0.5 * report.lower_opt, 2.0 * report.upper_opt) if valid
             else (report.upper_opt, 2.0 * report.upper_opt))
    count = _counting(monkeypatch)
    assert check_bounds(fresh, *claim).ok is valid
    assert len(count) == calls
    # after optimal_bounds, the spectrum of Herm(S) is cached on the system
    count.clear()
    assert check_bounds(warm, *claim).ok is valid
    assert len(count) == calls - 1


# ---------------------------------------------------------------------------
# check_bounds against the claim rule and the reference that decomposes both
# shifted matrices

# name -> (K for a generator, a dim and a field; the exact c with K K* = c * I,
# or None where K K* is not exactly a multiple of I, as for a unitary K)
_TARGETS = {
    "identity": (lambda rng, n, cx: np.eye(n), 1.0),
    "2I": (lambda rng, n, cx: 2.0 * np.eye(n), 4.0),
    "permutation": (lambda rng, n, cx: np.eye(n)[rng.permutation(n)], 1.0),
    "diag(2,-2,..)": (lambda rng, n, cx: np.diag(np.r_[2.0, -2.0 * np.ones(n - 1)]), 4.0),
    "unitary": (lambda rng, n, cx: np.linalg.qr(random_matrix(rng, n, n, cx))[0], None),
    "dense": (lambda rng, n, cx: random_target(rng, n, cx), None),
    "rank-deficient": (lambda rng, n, cx: random_target(rng, n, cx, rank=max(1, n // 2)), None),
}


def _claims(lower_opt: float, upper_opt: float):
    """(lower, upper, lower verdict, upper verdict); ``None`` where a claim
    sits within 1e-7 of the boundary on its false side, or within the
    tolerance, where the reference's cutoff and the claim rule may differ."""
    a, b, near = lower_opt, upper_opt, 1e-7
    claims = [
        (0.5 * a, 2.0 * b, True, True),
        (2.0 * a, 2.0 * max(a, b), False, True),
        (0.5 * min(a, b), 0.5 * b, True, False),
        (a * (1 - near), b * (1 + near), True, True),
        (a * (1 + near), max(a, b) * (1 + near), None, True),
        (min(a, b) * (1 - near), b * (1 - near), True, None),
        (a * (1 + 1e-11), max(a, b) * (1 + 1e-11), None, True),
        (min(a, b) * (1 - 1e-11), b * (1 - 1e-11), True, None),
    ]
    if 4.0 * a <= b:
        claims.append((2.0 * a, 0.5 * b, False, False))
    return claims


def _refutes(system: BiframeSystem, w: np.ndarray, lower: float, upper: float,
             lower_ok: bool) -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSelfAdjointWarning)
        form = biframe_form(system, w)
    if not lower_ok:
        kw = linalg.adjoint(system.target) @ w
        return form < lower * float(np.real(np.vdot(kw, kw)))
    return form > upper * float(np.real(np.vdot(w, w)))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("target", list(_TARGETS))
def test_check_bounds_matches_the_two_decomposition_reference(target, complex_):
    make, c = _TARGETS[target]
    t_index = list(_TARGETS).index(target)
    dim = 1 + (5 * t_index + 3 * complex_) % 8  # dims 1..8 over the targets and fields
    rng = np.random.default_rng(10 * t_index + complex_)
    base = random_valid_system(rng, dim, complex_=complex_, target=make(rng, dim, complex_),
                               asym=0.3)
    # the draw is what it is named for: K K* is exactly c * I, or not a multiple of I
    gram = gram_target(base)
    assert np.array_equal(gram, (gram[0, 0] if c is None else c) * np.eye(dim)) is (c is not None)
    for exponent in range(-12, 13):
        system = _scaled(base, 10.0 ** exponent)
        report = optimal_bounds(system)
        assert report.valid
        herm_norm = float(np.linalg.norm(linalg.hermitian_part(frame_operator(system))))
        gram_norm = float(np.linalg.norm(gram_target(system)))
        a, b, tol = report.lower_opt, report.upper_opt, linalg.DEFAULT_TOL
        for lower, upper, lower_want, upper_want in _claims(a, b):
            got = check_bounds(system, lower, upper)
            want = reference_check_bounds(system, lower, upper)
            # decided claims: the reference agrees; every claim: the claim rule
            if lower_want is not None:
                assert got.lower_ok == want.lower_ok == lower_want
            if upper_want is not None:
                assert got.upper_ok == want.upper_ok == upper_want
            lower_rule, upper_rule = lower <= a + tol * a, upper >= b - tol * abs(b)
            assert (got.lower_ok, got.upper_ok) == (lower_rule, upper_rule)
            assert got.ok == (got.lower_ok and got.upper_ok)
            assert not got.ok or (report.valid and lower_rule and upper_rule)
            assert got.lower_margin == a - lower
            slack = 1e-12 * (herm_norm + lower * gram_norm + upper)
            assert abs(got.upper_margin - want.upper_margin) <= slack
            assert (got.witness is None) == got.ok
            if got.witness is not None:
                assert _refutes(system, got.witness, lower, upper, got.lower_ok)
