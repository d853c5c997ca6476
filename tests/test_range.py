"""One range rule: every value that can leave float64 is formed on operands
divided by powers of two and scaled back once by ``linalg._ldexp``.

A system's bounds are homogeneous: weights scaled by ``2^j`` scale both
constants by ``2^j``, a target scaled by ``2^j`` divides the lower one by
``4^j``.  Across the whole exponent range each verdict must therefore come
out unscaled, with its constants scaled exactly, or the call must raise an
``OverflowError`` that says the value lies outside the float64 range; never
an ``inf``, a false verdict, a ``RuntimeWarning`` (warnings are errors in this
suite) or Python's bare "Numerical result out of range".
"""

import math
import sys

import numpy as np
import pytest

from biframekit import (
    BiframeSystem,
    DiscreteMeasure,
    biframe_form,
    check_bounds,
    classify,
    frame_operator,
    linalg,
    opcalc,
    optimal_bounds,
    validity_cross_check,
)
from biframekit.app.fixtures import fixture
from biframekit.biframe import _herm_part, _herm_spectrum
from biframekit.errors import BiframeError
from helpers import random_target, random_valid_system

_OUT_OF_RANGE = "outside the float64 range"


def _weighted(system: BiframeSystem, j: int) -> BiframeSystem:
    """The system with every weight multiplied by ``2^j``."""
    weights = np.ldexp(system.measure.weights, j)
    return BiframeSystem(DiscreteMeasure(system.measure.ids, weights),
                         system.analysis, system.synthesis, system.target)


def _stays_normal(j: int, *values) -> bool:
    """Whether every nonzero real and imaginary part of ``values``, scaled by
    ``2^j``, is a normal float with a binade to spare below (``Herm(S)``
    halves ``S``): then the scaled system is exactly the scaled one."""
    for value in values:
        parts = np.abs(np.stack([np.real(value), np.imag(value)])).ravel()
        exps = np.frexp(parts[parts > 0.0])[1] + j
        if np.any((exps < -1020) | (exps > sys.float_info.max_exp)):
            return False
    return True


def _verdicts(system: BiframeSystem, claims) -> tuple:
    """Every verdict of the four deciders, and the constants they report."""
    report = optimal_bounds(system)
    checks = tuple((v.ok, v.lower_ok, v.upper_ok)
                   for v in (check_bounds(system, *claim) for claim in claims))
    flags = classify(system)
    cross = validity_cross_check(system)
    verdicts = (report.valid, report.degenerate, report.witness_negative_form is None, checks,
                flags.families_equal, flags.tight, flags.parseval, flags.bessel_only,
                cross.pencil_valid, cross.quotient_bounded, cross.verdict)
    constants = (report.lower_opt, report.upper_opt, cross.lower_opt, cross.quotient_norm)
    return verdicts, constants


def _sweep_systems():
    """Seeded dim-2 and dim-3 systems, real and complex, against dense targets."""
    for dim, complex_ in ((2, False), (2, True), (3, False), (3, True)):
        rng = np.random.default_rng(100 * dim + complex_)
        yield random_valid_system(rng, dim, complex_=complex_, asym=0.3,
                                  target=random_target(rng, dim, complex_))


_SYSTEMS = list(_sweep_systems())


def _outcome(call):
    """``call()``, or ``None`` when it raises the range rule's ``OverflowError``."""
    try:
        return call()
    except OverflowError as exc:
        assert _OUT_OF_RANGE in str(exc), str(exc)
        return None


@pytest.mark.parametrize("scaled", ["weights", "target"])
@pytest.mark.parametrize("index", range(len(_SYSTEMS)), ids=["2-real", "2-complex", "3-real",
                                                              "3-complex"])
def test_every_verdict_is_scale_free_across_the_exponent_range(index, scaled):
    system = _SYSTEMS[index]
    report = optimal_bounds(system)
    lower, upper = report.lower_opt, report.upper_opt
    assert report.valid and 0.0 < lower < math.inf
    claims = ((lower / 2.0, max(2.0 * upper, lower)), (2.0 * lower, 2.0 * max(upper, lower)))
    want, constants = _verdicts(system, claims)
    assert want[3] == ((True, True, True), (False, False, True))
    # each constant's power of 2^(j/2): weights scale S, its spectrum and the
    # constants by 2^j, and the quotient norm ||[K* / H^{1/2}]|| by 2^(-j/2);
    # a target scaled by 2^j divides the lower constants by 4^j and
    # multiplies the quotient norm by 2^j
    if scaled == "weights":
        powers, inputs = (2, 2, 2, -1), (system.measure.weights, frame_operator(system),
                                         _herm_part(system), _herm_spectrum(system).values)
    else:
        powers, inputs = (-4, 0, -4, 2), (system.target,)
    checked = 0
    for j in range(-1074, 1024, 13):
        if scaled == "weights":
            if not np.all(np.ldexp(system.measure.weights, j) > 0.0):
                continue  # no weight is left to scale
            moved = _weighted(system, j)
            shift = (j, j)
        else:
            moved = system.with_target(np.ldexp(system.target.real, j) + (
                1j * np.ldexp(system.target.imag, j) if np.iscomplexobj(system.target) else 0.0))
            shift = (-2 * j, 0)
        exact = (_stays_normal(j, *inputs)
                 and all(_stays_normal(p * j // 2, c) for p, c in zip(powers, constants))
                 and all(_stays_normal(s, c) for claim in claims for s, c in zip(shift, claim)))
        if not exact:
            # not an exact scaling of the system: any verdict, but the range rule
            try:
                _outcome(lambda: _verdicts(moved, ()))
            except BiframeError:
                pass
            continue
        # a claim that holds (fails) scaled with the system, and raised to
        # stay well formed where the target shrinks the lower constant
        moved_claims = tuple((math.ldexp(lo, shift[0]), max(math.ldexp(hi, shift[1]),
                                                            math.ldexp(lo, shift[0])))
                             for lo, hi in claims)
        # every value it forms is an exact scaling of one that fits: no raise
        got = _verdicts(moved, moved_claims)
        checked += 1
        assert got[0] == want, j
        for p, whitened, value, ref in zip(powers, (True, False, True, True), got[1], constants):
            if scaled == "target" or not whitened or j % 2 == 0:
                assert value == math.ldexp(ref, p * j // 2), (j, p)
            else:
                # the lower constant whitens by the square roots of the
                # spectrum: an odd power of two scales them by an irrational
                # factor, so it and the quotient norm may move in the last bits
                assert value == pytest.approx(ref * 2.0 ** (p * j / 2), rel=1e-13), (j, p)
    assert checked > 60


# ---------------------------------------------------------------------------
# the acceptance systems


_P1_SAMPLES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _p1(scale: float = 1.0) -> BiframeSystem:
    """Weights ``(1e307, 1e307, 9e307)`` on ``F = G = [[1,0],[0,1],[1,1]]``,
    ``K = I``: ``Herm(S) = [[1e308, 9e307], [9e307, 1e308]]`` fits, but its
    top eigenvalue ``1.9e308`` does not."""
    measure = DiscreteMeasure(("a", "b", "c"), np.array([1e307, 1e307, 9e307]) * scale)
    return BiframeSystem.from_samples(measure, _P1_SAMPLES, _P1_SAMPLES, np.eye(2))


def _p2(scale: float = 1.0) -> BiframeSystem:
    """Weights ``1e300`` on ``F = 1e10 I`` and ``G = 1e-10 I``: ``S = 1e300 I``
    fits, though ``w_i F_i`` does not."""
    measure = DiscreteMeasure(("a", "b"), np.full(2, 1e300) * scale)
    return BiframeSystem.from_samples(measure, 1e10 * np.eye(2), 1e-10 * np.eye(2), np.eye(2))


@pytest.mark.parametrize("call", [
    optimal_bounds,
    lambda system: check_bounds(system, 1e306, 1e308),
    classify,
    validity_cross_check,
], ids=["optimal_bounds", "check_bounds", "classify", "validity_cross_check"])
def test_an_eigenvalue_beyond_float64_raises_naming_it(call):
    assert np.isfinite(_herm_part(_p1())).all()
    with pytest.raises(OverflowError, match=f"eigenvalues lie {_OUT_OF_RANGE}"):
        call(_p1())


def test_the_same_system_scaled_down_reads_valid():
    report = optimal_bounds(_p1(2.0 ** -600))
    assert report.valid
    assert report.lower_opt == pytest.approx(1e307 * 2.0 ** -600, rel=1e-12)
    assert report.upper_opt == pytest.approx(1.9 * (1e308 * 2.0 ** -600), rel=1e-12)


def test_a_frame_operator_that_fits_is_formed_where_its_terms_do_not():
    report, small = optimal_bounds(_p2()), optimal_bounds(_p2(2.0 ** -600))
    assert np.array_equal(frame_operator(_p2()), frame_operator(_p2(2.0 ** -600)) * 2.0 ** 600)
    assert report.valid
    assert report.lower_opt == pytest.approx(1e300, rel=1e-12)
    assert report.upper_opt == pytest.approx(1e300, rel=1e-12)
    assert (report.lower_opt, report.upper_opt) == (small.lower_opt * 2.0 ** 600,
                                                    small.upper_opt * 2.0 ** 600)


def test_a_frame_operator_beyond_float64_raises_naming_its_sums():
    measure = DiscreteMeasure(("a", "b"), np.full(2, 1e300))
    system = BiframeSystem.from_samples(measure, 1e10 * np.eye(2), 1e10 * np.eye(2), np.eye(2))
    with pytest.raises(OverflowError, match=f"frame operator's sums lie {_OUT_OF_RANGE}"):
        frame_operator(system)


# ---------------------------------------------------------------------------
# the places the sweep once broke


def test_tiny_weights_reach_no_bare_range_error():
    # weights 2^-1070 are subnormal: the shift's sigma^2 once overflowed a
    # Python float power, which raised "(34, 'Numerical result out of range')"
    system = _weighted(_SYSTEMS[0], -1070)
    try:
        optimal_bounds(system)
    except OverflowError as exc:
        assert _OUT_OF_RANGE in str(exc)


def test_the_form_of_huge_weights_is_formed_without_overflow():
    # weights 2^1020: the form of a unit f once overflowed in matmul
    system = _weighted(_SYSTEMS[2], 1020)
    f = np.array([1.0, -2.0, 0.5])
    want = biframe_form(_SYSTEMS[2], f)
    assert 2.0 ** 4 < abs(want) < 2.0 ** 6
    assert biframe_form(system, 2.0 ** -10 * f) == math.ldexp(want, 1000)
    assert biframe_form(system, 2.0 ** -500 * f) == math.ldexp(want, 20)
    with pytest.raises(OverflowError, match=f"the form lies {_OUT_OF_RANGE}"):
        biframe_form(system, f)


@pytest.mark.parametrize("c, power", [(4.0, 2000), (1.5, 2000), (1.01, 100000)])
def test_a_huge_power_of_a_perturbation_raises_naming_it(c, power):
    # ||T||^n is no float64, while the n-th power of the frexp mantissa of
    # ||T|| underflows to 0: the decision cannot rest on that power
    base = fixture("example-3-3")
    with pytest.raises(OverflowError, match=rf"perturbation T\^{power} lies {_OUT_OF_RANGE}"):
        opcalc.perturb_positive(base, c * np.eye(3), power)
    # a norm of 1 keeps every power in range: I + T^n = 2 I
    upper = optimal_bounds(base).upper_opt
    assert opcalc.perturb_positive(base, np.eye(3), power).guaranteed_upper == 4.0 * upper


# ---------------------------------------------------------------------------
# the helper


def test_ldexp_scales_arrays_by_their_largest_entry():
    a = np.array([1.5, -1e-300, 0.0])
    out = linalg._ldexp(a, 1000, "a")
    assert np.array_equal(out, a * 2.0 ** 1000)
    # the small entries round as IEEE does; the top one is what must fit
    tiny = linalg._ldexp(a, -1070, "a")
    assert tiny[0] == math.ldexp(1.5, -1070) and tiny[1] == 0.0 and math.copysign(1, tiny[1]) < 0
    for exp in (1024, -1076):
        with pytest.raises(OverflowError, match=f"the entries lie {_OUT_OF_RANGE}"):
            linalg._ldexp(a, exp, "the entries")
    with pytest.raises(OverflowError, match=f"the number lies {_OUT_OF_RANGE}"):
        linalg._ldexp(1.5, 1024, "the number")
    assert linalg._ldexp(np.zeros(2), 5000, "zeros").tolist() == [0.0, 0.0]


def test_ldexp_keeps_complex_parts_and_the_sign_of_zero():
    a = np.array([[1.0 - 0.0j, -0.0 + 2.0j], [3e-310 + 1e300j, 0.0 - 1.0j]])
    out = linalg._ldexp(a, 3, "a")
    assert out.dtype == a.dtype
    for got, want in zip(out.ravel(), a.ravel()):
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert g == w * 8.0 and math.copysign(1, g) == math.copysign(1, w)
    number = linalg._ldexp(0.75 - 0.25j, -2, "z")
    assert isinstance(number, complex) and number == 0.1875 - 0.0625j
    assert isinstance(linalg._ldexp(0.75, -2, "x"), float)
