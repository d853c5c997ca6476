"""One scale-relative tolerance rule: verdicts that do not depend on units.

A system's bounds are homogeneous in its weights: multiply every weight by
``c`` and the optimal pair becomes ``(c A, c B)`` with the same validity.
Scaling the target ``K`` by ``c`` scales ``K K*`` by ``c^2``, so the pair
becomes ``(A / c^2, B)``.
They are also invariant under a unitary change of basis and under exchanging
the two families.  Every verdict must follow, which holds only when each
threshold is relative to the problem it is about.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biframekit import (
    BiframeSystem,
    DiscreteMeasure,
    biframe_form,
    check_bounds,
    classify,
    gram_target,
    linalg,
    opcalc,
    optimal_bounds,
    swap,
)
from biframekit.errors import NotTightError
from biframekit.app.fixtures import fixture
from helpers import random_matrix, random_system, random_target, random_valid_system

SRC = Path(__file__).resolve().parent.parent / "src" / "biframekit"


def _weighted(system: BiframeSystem, c: float) -> BiframeSystem:
    """The system with every weight multiplied by ``c``."""
    return BiframeSystem(
        measure=DiscreteMeasure(system.measure.ids, c * system.measure.weights),
        analysis=system.analysis,
        synthesis=system.synthesis,
        target=system.target,
    )


def _two_by_two(weight: float) -> BiframeSystem:
    """``F = I``, ``G = diag(1, -1)`` with equal weights and ``K = I``: the
    form is ``weight * (|f_1|^2 - |f_2|^2)``, indefinite at every scale."""
    measure = DiscreteMeasure(("a", "b"), np.full(2, weight))
    return BiframeSystem.from_samples(measure, np.eye(2), np.diag([1.0, -1.0]), np.eye(2))


class TestTinyIndefiniteSystem:
    """Weights of 1e-12 once fell below an absolute cutoff of 1e-9."""

    system = _two_by_two(1e-12)

    def test_invalid_with_a_negative_form_witness_the_form_confirms(self):
        report = optimal_bounds(self.system)
        assert report.valid is False
        witness = report.witness_negative_form
        assert witness is not None
        assert biframe_form(self.system, witness) < 0.0

    def test_false_claim_is_refuted_with_a_witness(self):
        lower, upper = 1e-13, 1e-12
        outcome = check_bounds(self.system, lower, upper)
        assert outcome.ok is False
        w = outcome.witness
        form = biframe_form(self.system, w)
        norm_sq = float(np.real(np.vdot(w, w)))
        # K = I, so the claim reads lower*||f||^2 <= form(f) <= upper*||f||^2
        assert form < lower * norm_sq or form > upper * norm_sq


# ---------------------------------------------------------------------------
# properties


def _draw(dim: int, complex_: bool, target: str, valid: bool, seed: int) -> BiframeSystem:
    rng = np.random.default_rng(seed)
    if target == "identity":
        k = np.eye(dim)
    elif target == "dense":
        k = random_target(rng, dim, complex_)
    else:  # rank-deficient; at dim 1 that is the zero target
        k = random_target(rng, dim, complex_, rank=dim - 1)
    make = random_valid_system if valid else random_system
    return make(rng, dim, complex_=complex_, target=k)


systems = st.builds(
    _draw,
    dim=st.integers(1, 8),
    complex_=st.booleans(),
    target=st.sampled_from(("identity", "dense", "rank-deficient")),
    valid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _claims(report) -> tuple[tuple[float, float] | None, tuple[float, float]]:
    """A bound pair the system satisfies (``None`` if it has none) and one it
    does not, each with a wide margin."""
    lower, upper = report.lower_opt, report.upper_opt
    if not report.valid:
        x = abs(upper)
        return None, (x, 2.0 * x)
    if math.isinf(lower):  # zero target: every lower constant holds
        return (upper, 2.0 * upper), (upper / 4.0, upper / 2.0)
    return (lower / 2.0, max(2.0 * upper, lower)), (2.0 * lower, max(2.0 * upper, 2.0 * lower))


def _verdicts(system: BiframeSystem, claims, scales: tuple[float, float] = (1.0, 1.0)) -> tuple:
    report = optimal_bounds(system)
    checks = tuple(
        None if claim is None
        else check_bounds(system, scales[0] * claim[0], scales[1] * claim[1]).ok
        for claim in claims
    )
    return (report.valid, report.witness_negative_form is None) + checks


def _same_bound(got, want) -> bool:
    if want is None or math.isinf(want):
        return got == want
    return got == pytest.approx(want, rel=1e-9)


def _baseline(system: BiframeSystem):
    report = optimal_bounds(system)
    claims = _claims(report)
    verdicts = _verdicts(system, claims)
    # the claims mean what they say at the original scale
    assert verdicts[2:] == ((None if claims[0] is None else True), False)
    return report, claims, verdicts


@settings(max_examples=40, deadline=None)
@given(systems, st.integers(-12, 12))
def test_scaling_the_weights_scales_the_bounds_and_keeps_every_verdict(system, exponent):
    c = 10.0 ** exponent
    report, claims, verdicts = _baseline(system)
    scaled = _weighted(system, c)
    moved = optimal_bounds(scaled)
    want_lower = None if report.lower_opt is None else c * report.lower_opt
    assert _same_bound(moved.lower_opt, want_lower)
    assert _same_bound(moved.upper_opt, c * report.upper_opt)
    assert _verdicts(scaled, claims, (c, c)) == verdicts


def _target_claims(report, c: float):
    """:func:`_claims`, well formed both as ``(lower, upper)`` and as
    ``(lower / c^2, upper)``: a claim's upper constant that holds rises to
    cover the moved lower one.  A zero target's false claim fails on its
    upper side, so there the lower constant, which only asks
    ``Herm(S) >= 0`` of a zero target, shrinks instead."""
    true_claim, false_claim = _claims(report)

    def raised(claim):
        return claim[0], max(claim[1], c**-2 * claim[0])

    if math.isinf(report.lower_opt or 0.0):
        false_claim = (false_claim[0] * min(1.0, c**2), false_claim[1])
    else:
        false_claim = raised(false_claim)
    return (None if true_claim is None else raised(true_claim)), false_claim


@settings(max_examples=40, deadline=None)
@given(systems, st.integers(-6, 6))
def test_scaling_the_target_divides_the_lower_bound_and_keeps_every_verdict(system, exponent):
    c = 10.0 ** exponent
    report = optimal_bounds(system)
    claims = _target_claims(report, c)
    verdicts = _verdicts(system, claims)
    assert verdicts[2:] == ((None if claims[0] is None else True), False)
    scaled = system.with_target(c * system.target)
    moved = optimal_bounds(scaled)
    want_lower = None if report.lower_opt is None else report.lower_opt / c**2
    assert _same_bound(moved.lower_opt, want_lower)
    assert moved.upper_opt == report.upper_opt
    assert _verdicts(scaled, claims, (c**-2, 1.0)) == verdicts


# the example-3-3 samples against c * I and c * M: at c = 1e155 the squared
# norm of the target overflows, at 1e-150 the whitening would
_M = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
_EXTREME_TARGETS = {"identity": np.eye(3), "M": _M}


@pytest.mark.parametrize("c", [1e155, 1e150, 1e-150])
@pytest.mark.parametrize("target", list(_EXTREME_TARGETS))
def test_an_extreme_target_scale_divides_the_lower_bound_by_its_square(c, target):
    base = fixture("example-3-3")
    k = _EXTREME_TARGETS[target]
    want = optimal_bounds(base.with_target(k)).lower_opt
    report = optimal_bounds(base.with_target(c * k))  # warnings are errors in this suite
    assert report.valid and not report.degenerate
    assert report.lower_opt * c * c == pytest.approx(want, rel=1e-9)


def test_only_an_exactly_zero_target_is_degenerate():
    base = fixture("example-3-3")
    zero = optimal_bounds(base.with_target(np.zeros((3, 3))))
    assert zero.degenerate and zero.lower_opt == math.inf
    for k in _EXTREME_TARGETS.values():
        report = optimal_bounds(base.with_target(1e-150 * k))
        assert not report.degenerate and math.isfinite(report.lower_opt)
    # the smallest subnormal target: k k* underflows to 0, k itself does not
    with pytest.raises(OverflowError):
        optimal_bounds(base.with_target(5e-324 * np.eye(3)))


@pytest.mark.parametrize("c", [1e-170, 1e-160, 1e200])
def test_a_lower_constant_outside_the_float_range_raises_naming_the_scale(c):
    base = fixture("example-3-3")
    with pytest.raises(OverflowError, match=r"target of scale 2\^-?\d+ .*float64 range"):
        optimal_bounds(base.with_target(c * _M))


@settings(max_examples=30, deadline=None)
@given(systems, st.integers(0, 2**32 - 1))
def test_unitary_change_of_basis_and_swap_keep_bounds_and_verdicts(system, seed):
    report, claims, verdicts = _baseline(system)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(random_matrix(rng, system.dim, system.dim, system.field_name == "complex"))
    rotated = BiframeSystem.from_samples(
        system.measure,
        system.analysis.samples @ u.T,
        system.synthesis.samples @ u.T,
        u @ system.target,
    )
    for other in (rotated, swap(system)):
        moved = optimal_bounds(other)
        assert _same_bound(moved.lower_opt, report.lower_opt)
        assert _same_bound(moved.upper_opt, report.upper_opt)
        assert _verdicts(other, claims) == verdicts


# ---------------------------------------------------------------------------
# equality verdicts at the ends of the float range


_EXTREME_WEIGHTS = [1e200, 1e-200, 2.0**600, 2.0**-600]


def _tight_system() -> BiframeSystem:
    """``F = G = sqrt(3) I`` with unit weights and ``K = I``: ``Herm(S) = 3 I``."""
    f = np.sqrt(3.0) * np.eye(2)
    return BiframeSystem.from_samples(DiscreteMeasure(("a", "b"), np.ones(2)), f, f, np.eye(2))


@pytest.mark.parametrize("c", _EXTREME_WEIGHTS)
def test_extreme_weights_keep_the_equality_verdicts_of_a_system_that_is_not_tight(c):
    base = fixture("example-3-3").with_target(np.eye(3))  # Herm(S) = diag(4, 3, 2)
    scaled = _weighted(base, c)
    assert classify(scaled) == classify(base)
    assert opcalc.parseval_check(scaled) is False
    with pytest.raises(NotTightError):
        opcalc.tight_scaling_check(scaled, c, c)


@pytest.mark.parametrize("c", [1.0] + _EXTREME_WEIGHTS)
def test_extreme_weights_keep_a_tight_system_tight(c):
    flags = classify(_weighted(_tight_system(), c))
    assert flags.tight and not flags.parseval
    assert flags.tight_constant == pytest.approx(3.0 * c, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [1e100, 1e-100])
def test_an_extreme_target_scale_keeps_a_tight_system_tight(c):
    flags = classify(_tight_system().with_target(c * np.eye(2)))
    assert flags.tight and not flags.parseval
    assert flags.tight_constant == pytest.approx(3.0 / c / c, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [1e155, 1e300, 1e-155, 1e-300])
def test_parseval_check_decides_an_extreme_target_without_overflow(c):
    # K K* leaves the float range; it is compared as (K/2^e)(K/2^e)* = 2^-2e I
    plain = BiframeSystem.from_samples(DiscreteMeasure(("a", "b", "c"), np.ones(3)),
                                       np.eye(3), np.eye(3), np.eye(3))
    assert opcalc.parseval_check(plain)
    assert opcalc.parseval_check(plain.with_target(c * np.eye(3))) is False


def _tiny_target_system() -> BiframeSystem:
    """Unit weights, ``F = G = I`` and ``K = 2^-500 I``: tight, with
    ``Herm(S) = I = 2^1000 K K*``."""
    return BiframeSystem.from_samples(DiscreteMeasure(("a", "b"), np.ones(2)),
                                      np.eye(2), np.eye(2), 2.0**-500 * np.eye(2))


def test_tight_scaling_check_decides_where_c_kk_leaves_float64():
    # A_1 / A_2 = 2^1030 is no float; (A_1 / A_2) K K* = 2^30 I is no
    # identity, and is decided so with no inf * 0 on the way
    system = _tiny_target_system()
    assert np.array_equal(gram_target(system, 2.0**1000), np.eye(2))
    assert opcalc.tight_scaling_check(system, 2.0**1000, 2.0**-30) is False
    assert opcalc.tight_scaling_check(system, 2.0**1000, 1.0) is True
    # A_1 K K* = 2^1100 I is no float, so Herm(S) = I is not A_1 K K*
    with pytest.raises(NotTightError, match="relative defect inf"):
        opcalc.tight_scaling_check(system.with_target(2.0**500 * np.eye(2)), 2.0**100, 1.0)


@pytest.mark.parametrize("c, scale", [(math.inf, -500), (math.inf, 0), (2.0**100, 500),
                                      (2.0**-100, -500)])
def test_gram_target_raises_naming_c_kk_outside_float64(c, scale):
    # an infinite c, and c K K* = 2^1100 I and 2^-1100 I, which float64 cannot hold
    system = _tiny_target_system().with_target(2.0**scale * np.eye(2))
    with pytest.raises(OverflowError, match=r"c·KK\*"):
        gram_target(system, c)


def test_relative_gap_is_the_plain_ratio_and_scale_free():
    zero = np.zeros((2, 2))
    assert linalg.relative_gap(zero, zero) == 0.0
    assert linalg.relative_gap(zero, np.eye(2)) == math.inf
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 3, 3, True)
    b = a + 1e-3 * random_matrix(rng, 3, 3, True)
    gap = linalg.relative_gap(a, b)
    assert gap == float(np.linalg.norm(a - b)) / float(np.linalg.norm(a))
    for j in (900, -900):
        two_j = math.ldexp(1.0, j)
        assert linalg.relative_gap(two_j * a, two_j * b) == gap


# ---------------------------------------------------------------------------
# tooling guard


def _linalg_lines(name: str) -> range:
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    return range(node.lineno, node.end_lineno + 1)


def test_no_second_tolerance_rule_in_the_package():
    """Each verdict compares against ``tol`` times a norm of its problem; a
    ``max(1, ...)`` floor, a second tolerance constant or an absolute slack
    would bring back a cutoff that does not scale with the problem.  Every
    equality verdict reads ``linalg.relative_gap``: a hand-written Frobenius
    comparison ``np.linalg.norm(x - y)`` anywhere else squares its entries
    on a scale of its own, and over- or underflows at the ends of the range.
    A spectral norm of a difference, ``spectral_norm(x - y)``, is the same
    verdict by a second norm; only ``linalg.asymmetry``, a diagnostic that
    decides nothing, takes one.  A constant scaled by a squared norm goes
    through ``linalg._rescaled``: a hand-squared ``x / n / n`` or ``x * n * n``
    elsewhere ships a false 0 or ``inf`` where the product leaves float64."""
    banned = re.compile(r"max\(1|RANK_TOL|rank_tol|_DOMINANCE_SLACK")
    patterns = {"relative_gap": re.compile(r"np\.linalg\.norm\([^)]*\s-\s"),
                "asymmetry": re.compile(r"spectral_norm\([^)]*\s-\s"),
                "_rescaled": re.compile(r"([*/]) (\w+) \1 \2\b")}
    allowed = {name: {("linalg.py", number) for number in _linalg_lines(name)}
               for name in patterns}
    found, seen = [], set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            hits = [owner for owner, pattern in patterns.items() if pattern.search(line)]
            seen.update(owner for owner in hits if (name, number) in allowed[owner])
            if banned.search(line) or any((name, number) not in allowed[o] for o in hits):
                found.append(f"{name}:{number}: {line.strip()}")
    assert seen == set(patterns), "a pattern no longer matches the one function it allows"
    assert not found, "\n".join(found)
