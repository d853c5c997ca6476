"""One decomposition of ``Herm(S)`` per system.

A system caches ``S``, ``Herm(S)``, its spectrum and the asymmetry on first
use; ``with_target`` shares that cache, since nothing in it depends on the
target, so a decomposition made on either system serves both.  The cache must be
invisible: a warm system (cache filled, or shared) gives bit-for-bit the
reports, verdicts and witnesses of a freshly built one.  The cached arrays
are read-only, and every witness handed out is a writable copy.
"""

import tracemalloc

import numpy as np
import pytest

from biframekit import (
    BiframeSystem,
    check_bounds,
    classify,
    errors,
    linalg,
    opcalc,
    optimal_bounds,
    quotient,
)
from biframekit.biframe import _herm_part, frame_operator
from helpers import random_matrix, random_psd, random_target, random_valid_system

_TARGETS = {
    "identity": lambda rng, n, cx: np.eye(n, dtype=complex if cx else float),
    "dense": lambda rng, n, cx: random_target(rng, n, cx),
    "rank-deficient": lambda rng, n, cx: random_target(rng, n, cx, rank=n // 2),
}


def _build(dim: int, complex_: bool, target: str, valid: bool) -> BiframeSystem:
    """The same system on every call, each time with an empty cache."""
    rng = np.random.default_rng([dim, complex_, list(_TARGETS).index(target), valid])
    system = random_valid_system(rng, dim, complex_=complex_,
                                 target=_TARGETS[target](rng, dim, complex_), asym=0.3)
    if valid:
        return system
    # G = D F with D = diag(1, ..., 1, -1) gives Herm(S) a negative diagonal entry
    flip = np.r_[np.ones(dim - 1), -1.0]
    f = system.analysis.samples
    return BiframeSystem.from_samples(system.measure, f, f * flip, system.target)


def _same(got, want) -> bool:
    """Equal field by field, arrays bit for bit."""
    a, b = vars(got), vars(want)
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) or isinstance(b[k], np.ndarray)
        else a[k] == b[k]
        for k in a)


def _outcome(call, system):
    try:
        return call(system)
    except errors.BiframeError as exc:
        return type(exc)


def _agree(call, warm, fresh) -> bool:
    got, want = _outcome(call, warm), _outcome(call, fresh)
    return got is want if isinstance(want, type) else _same(got, want)


def _claims(report):
    """A true claim, a false lower claim and a false upper claim for a valid
    system; the same shapes at the system's own scale otherwise."""
    b = abs(report.upper_opt) or 1.0
    a = report.lower_opt if report.valid and np.isfinite(report.lower_opt) else b
    return [(0.5 * a, 2.0 * max(a, b)), (2.0 * a, 2.0 * max(a, b)), (0.5 * min(a, b), 0.5 * b)]


def _calls(dim: int, complex_: bool, report):
    t = np.eye(dim) + 0.3 * random_matrix(np.random.default_rng(dim), dim, dim, complex_)
    calls = [optimal_bounds, quotient.validity_cross_check,
             lambda s: quotient.transform_equivalences(s, t)]
    calls += [lambda s, lo=lo, hi=hi: check_bounds(s, lo, hi) for lo, hi in _claims(report)]
    return calls


_CASES = [(dim, complex_, target, valid)
          for dim in range(1, 9) for complex_ in (False, True)
          for target in _TARGETS for valid in (True, False)]
_IDS = [f"d{d}-{'complex' if c else 'real'}-{t}-{'valid' if v else 'indefinite'}"
        for d, c, t, v in _CASES]


@pytest.mark.parametrize("dim, complex_, target, valid", _CASES, ids=_IDS)
def test_a_warm_system_reports_what_a_fresh_one_does(dim, complex_, target, valid):
    report = optimal_bounds(_build(dim, complex_, target, valid))
    assert report.valid is valid  # the draw is the kind it claims
    for call in _calls(dim, complex_, report):
        warm = _build(dim, complex_, target, valid)
        optimal_bounds(warm)
        assert _agree(call, warm, _build(dim, complex_, target, valid))
    if valid and np.isfinite(report.lower_opt):
        system = _build(dim, complex_, target, valid)
        true, false_lower, _ = _claims(report)
        assert check_bounds(system, *true).ok and not check_bounds(system, *false_lower).ok


@pytest.mark.parametrize("dim, complex_, target, valid", _CASES, ids=_IDS)
def test_a_retargeted_system_reports_what_a_fresh_one_does(dim, complex_, target, valid):
    fresh = _build(dim, complex_, target, valid)
    base = BiframeSystem(fresh.measure, fresh.analysis, fresh.synthesis,
                         np.eye(dim, dtype=fresh.target.dtype))
    optimal_bounds(base)
    report = optimal_bounds(fresh)
    for call in _calls(dim, complex_, report):
        warm = base.with_target(fresh.target)
        assert warm._cache.keys() >= {"frame_operator", "herm_part", "herm_spectrum", "asymmetry"}
        assert _agree(call, warm, _build(dim, complex_, target, valid))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "indefinite"])
def test_cached_arrays_are_read_only_and_witnesses_are_copies(complex_, valid):
    system = _build(5, complex_, "identity", valid)
    report = optimal_bounds(system)
    spectrum = system._cache["herm_spectrum"]
    assert not spectrum.values.flags.writeable and not spectrum.vectors.flags.writeable
    assert not frame_operator(system).flags.writeable
    assert not _herm_part(system).flags.writeable
    claim = _claims(report)[0 if not valid else 2]
    verdict = check_bounds(system, *claim)
    witnesses = [report.witness_lower, report.witness_negative_form, verdict.witness]
    witnesses = [w for w in witnesses if w is not None]
    assert len(witnesses) == (3 if not valid else 2)
    for w in witnesses:
        assert w.flags.writeable and not np.shares_memory(w, spectrum.vectors)
        w[:] = 7.0
    fresh = _build(5, complex_, "identity", valid)
    assert _same(optimal_bounds(system), optimal_bounds(fresh))
    assert _same(check_bounds(system, *claim), check_bounds(fresh, *claim))


def _counting(monkeypatch, herm: np.ndarray) -> list:
    """Every decomposition of ``herm``, bit for bit, from now on."""
    seen = []
    real = linalg.hermitian_eigen

    def counted(a, *args, **kwargs):
        if np.array_equal(a, herm):
            seen.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigen", counted)
    return seen


@pytest.mark.parametrize("first", ["promote", "sum", "product-chain"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_a_round_of_every_rule_decomposes_the_base_once(monkeypatch, complex_, first):
    dim = 6
    rng = np.random.default_rng(31 + complex_)
    eye = np.eye(dim, dtype=complex if complex_ else float)
    base = random_valid_system(rng, dim, complex_=complex_, target=eye, asym=0.3)
    near = [eye + 0.3 * random_matrix(rng, dim, dim, complex_) / np.sqrt(dim) for _ in range(4)]
    u, k2, ka, kb = near
    t_psd = 0.2 * random_psd(rng, dim, complex_) / dim
    herm = linalg.hermitian_part(frame_operator(base))
    seen = _counting(monkeypatch, herm)

    rules = {
        "promote": lambda: opcalc.promote(base, k2),
        # sum and product-chain decompose Herm(S) on a retargeted copy of
        # the base first: the base and the result read that one decomposition
        "sum": lambda: opcalc.combine_sum(base, [(1.0, ka), (0.5, kb)]),
        "product-chain": lambda: opcalc.product_chain(base, [ka, kb]),
        "product": lambda: opcalc.combine_product(base, k2),
        "apply": lambda: opcalc.apply_operator(base, u),
        "dual": lambda: opcalc.canonical_dual(base, k2),
        "sandwich": lambda: opcalc.sandwich(base, u),
        "inverse-conjugate": lambda: opcalc.inverse_conjugate(base, u),
        "commute": lambda: opcalc.commuting_transform(base, u),
        "perturb": lambda: opcalc.perturb_positive(base, t_psd),
    }
    for name in [first] + [name for name in rules if name != first]:
        result = rules[name]()
        assert result.rule == name
        optimal_bounds(result.system)  # the result certified, as the benchmark does
        assert len(seen) == 1
    # onto range(I) restrict_to_range retargets the base, sharing its cache
    result = opcalc.restrict_to_range(base)
    assert result.rule == "restrict"
    optimal_bounds(result.system)
    assert opcalc.max_transfer_ratio(base, u) > 0.0
    with pytest.raises(errors.NotTightError):
        opcalc.tight_scaling_check(base, 1.0, 1.0)
    assert not opcalc.parseval_check(base)
    assert not classify(base).bessel_only
    assert quotient.validity_cross_check(base).verdict is True
    assert quotient.transform_equivalences(base, u).all_agree
    assert len(seen) == 1


def test_dropped_retargets_hold_no_memory():
    # a shift depends on its target, so it is kept on its own system and
    # dies with it: a sweep of targets over one set of samples holds nothing
    # per target once each retargeted system is dropped
    rng = np.random.default_rng(12)
    base = random_valid_system(rng, 12)
    step = random_matrix(rng, 12, 12, False) / 4000.0

    def sweep(count):
        for j in range(count):
            assert optimal_bounds(base.with_target(np.eye(12) + j * step)).valid

    sweep(10)  # the spectrum and the asymmetry are cached on the samples now
    tracemalloc.start()
    try:
        sweep(2000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a shift kept per (target, tol) for the samples' lifetime holds ~700 B each
    assert held < 64_000
