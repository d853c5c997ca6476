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

from click.testing import CliRunner

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
    tensor,
    validity_cross_check,
)
from biframekit.app import save
from biframekit.app.cli import main
from biframekit.app.fixtures import fixture
from biframekit.measure import product_measure
from biframekit.biframe import _herm_part, _herm_spectrum, _unit_samples
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


_LDEXP_VALUES = (1.5, -1e-300, 3e-310, 0.0, -0.0, np.float64(0.1), 7, 0.75 - 0.25j,
                 -0.0 + 3e-310j, 1e300 - 1e-300j, complex(-0.0, 0.0))


@pytest.mark.parametrize("exp", [0, 3, -3, 1000, -1000, -1022, -1070, -1074, -1076, 1023,
                                 1024, 2000, -2000])
def test_ldexp_scales_a_number_as_it_scales_an_array(exp):
    # a Python number takes math.ldexp, a 0-d array numpy: the same bits and
    # the same type back, or the same OverflowError
    for value in _LDEXP_VALUES:
        outcomes = []
        for operand in (value, np.array(value)):
            try:
                got = linalg._ldexp(operand, exp, "v")
            except OverflowError as exc:
                got = str(exc)
            outcomes.append((type(got), np.asarray(got).tobytes()))
        assert outcomes[0] == outcomes[1], (value, exp)
    assert linalg._ldexp(3e-310, 1, "v") == 6e-310  # a subnormal top ships
    with pytest.raises(OverflowError, match=f"the number lies {_OUT_OF_RANGE}"):
        linalg._ldexp(3e-310, -60, "the number")


def _old_unit_samples(system: BiframeSystem):
    """``biframe._unit_samples`` as it was, splitting the weights by row too."""
    (w, a), (f, b), (g, c) = (linalg._binary_normalised(x, rows=True) for x in (
        system.measure.weights, system.analysis.samples, system.synthesis.samples))
    r = a + b + c
    e = int(r[f.any(axis=1) & g.any(axis=1)].max(initial=r.min()))
    return linalg._shift(w, np.minimum(r - e, 0)), f, g, e


def _per_node_systems():
    """The per-node fixtures above, and seeded systems with rows and weights
    scaled node by node, some with a dead node."""
    yield _spread()
    yield _huge()
    yield BiframeSystem.from_samples(DiscreteMeasure(("a", "b"), np.ones(2)),
                                     np.array([[0.0], [2.0 ** -600]]),
                                     np.array([[2.0 ** 1000], [2.0 ** 500]]), np.eye(1))
    rng = np.random.default_rng(2626)
    for trial in range(12):
        dim, complex_ = 2 + trial % 3, trial % 2 == 1
        system = random_valid_system(rng, dim, complex_=complex_, asym=0.3,
                                     target=random_target(rng, dim, complex_))
        if trial % 3 == 0:
            system = _with_dead_node(system)
        nodes = len(system.measure)
        j = rng.integers(-600, 601, size=nodes)
        weights = np.ldexp(system.measure.weights, rng.integers(-1070, 901, size=nodes))
        yield BiframeSystem.from_samples(DiscreteMeasure(system.measure.ids, weights),
                                         _rows_times(system.analysis.samples, j),
                                         _rows_times(system.synthesis.samples, -j // 2),
                                         system.target)


def test_unit_samples_scale_the_weights_as_the_row_split_did():
    # one shift of w by min(r - e, 0) - a rounds the same value once: the
    # same bits as dividing by 2^a first
    for system in _per_node_systems():
        new, old = _unit_samples(system), _old_unit_samples(system)
        assert new[3] == old[3]
        for got, want in zip(new[:3], old[:3]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the product rule: one power of two per row


def _spread() -> BiframeSystem:
    """``F = diag(1e200, 1e-200)``, ``G = diag(1e-200, 1e200)``, unit weights,
    ``K = I``: ``S = I``, though the rows of each family lie 2^1329 apart."""
    return BiframeSystem.from_samples(DiscreteMeasure(("a", "b"), np.ones(2)),
                                      np.diag([1e200, 1e-200]), np.diag([1e-200, 1e200]), np.eye(2))


def _huge() -> BiframeSystem:
    """``F = 1e200 I``, ``G = 1e-200 I``, unit weights, ``K = I``: ``S = I``."""
    return BiframeSystem.from_samples(DiscreteMeasure(("a", "b"), np.ones(2)),
                                      1e200 * np.eye(2), 1e-200 * np.eye(2), np.eye(2))


def test_rows_far_apart_keep_their_frame_operator_and_bounds():
    # a whole-family power of two once flushed each family's small row to 0,
    # so S read 0 and the system invalid
    system = _spread()
    assert np.array_equal(frame_operator(system), np.eye(2))
    report = optimal_bounds(system)
    assert (report.lower_opt, report.upper_opt, report.valid) == (1.0, 1.0, True)
    assert biframe_form(system, [0.0, 1.0]) == 1.0


def test_a_mapped_row_far_below_the_others_keeps_its_bits():
    mapped = opcalc.apply_operator(_spread(), 2.0 * np.eye(2)).system
    assert mapped.analysis.samples.tolist() == [[2e200, 0.0], [0.0, 2e-200]]
    assert mapped.synthesis.samples.tolist() == [[2e-200, 0.0], [0.0, 2e200]]


def test_kron_keeps_every_row_of_numpy_kron():
    a = np.diag([1e200, 1e-200])
    got = tensor.kron(a, [[1.0]])
    assert np.array_equal(got, np.kron(a, [[1.0]])) and got[1, 1] == 1e-200
    assert tensor.kron(np.zeros((0, 2)), np.eye(2)).shape == (0, 4)  # as numpy.kron


@pytest.mark.parametrize("weight", [1e200, 1e-200])
def test_product_weights_outside_the_float_range_raise_naming_them(weight):
    # not the measure's "node weights must be finite and positive": the
    # weights given are fine, their products are what float64 cannot hold
    measure = DiscreteMeasure(("a", "b"), np.array([weight, 1.0]))
    with pytest.raises(OverflowError, match=f"the product weights lie {_OUT_OF_RANGE}"):
        product_measure(measure, measure)


def test_a_tensor_product_outside_the_float_range_raises():
    with pytest.raises(OverflowError, match=_OUT_OF_RANGE):
        tensor.tensor_system(_huge(), _huge())


def test_cli_tensor_outside_the_float_range_is_usage_error(tmp_path):
    path = tmp_path / "huge.json"
    save(_huge(), path)
    run = CliRunner().invoke(main, ["tensor", str(path), str(path), "-o",
                                    str(tmp_path / "out.json")])
    assert run.exit_code == 2, run.output
    assert run.exception is None or isinstance(run.exception, SystemExit)
    assert _OUT_OF_RANGE in run.output


def test_a_node_with_a_zero_row_sets_no_scale():
    # node 0 adds nothing (its analysis row is 0), yet its rows' powers of
    # two sum to 2^999; taken as the sum's scale, they flushed node 1's term
    # 2^-100 to 0
    system = BiframeSystem.from_samples(DiscreteMeasure(("a", "b"), np.ones(2)),
                                        np.array([[0.0], [2.0 ** -600]]),
                                        np.array([[2.0 ** 1000], [2.0 ** 500]]), np.eye(1))
    assert frame_operator(system).tolist() == [[2.0 ** -100]]
    assert biframe_form(system, [1.0]) == 2.0 ** -100


def _with_dead_node(system: BiframeSystem) -> BiframeSystem:
    """``system`` with one more node, of weight ``2^100``, analysis row 0 and
    synthesis row ``2^1000``: it adds nothing to any sum."""
    measure = DiscreteMeasure(system.measure.ids + ("dead",),
                              np.append(system.measure.weights, 2.0 ** 100))
    f, g = system.analysis.samples, system.synthesis.samples
    return BiframeSystem.from_samples(measure, np.vstack([f, np.zeros_like(f[:1])]),
                                      np.vstack([g, np.full_like(g[:1], 2.0 ** 1000)]),
                                      system.target)


def test_a_mapped_or_kron_row_that_rounds_to_zero_raises():
    # each row is its own value: a nonzero one that float64 cannot hold is
    # no 0 to ship
    system = BiframeSystem.from_samples(DiscreteMeasure(("a", "b"), np.ones(2)),
                                        np.diag([1.0, 2.0 ** -1000]),
                                        np.diag([1.0, 2.0 ** 1000]), np.eye(2))
    with pytest.raises(OverflowError, match=f"the constructed samples or target lie {_OUT_OF_RANGE}"):
        opcalc.apply_operator(system, 2.0 ** -100 * np.eye(2))
    with pytest.raises(OverflowError, match=f"Kronecker product's entries lie {_OUT_OF_RANGE}"):
        tensor.kron(np.diag([1.0, 2.0 ** -600]), [[2.0 ** -600]])


def _rows_times(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Row ``i`` of ``a`` times ``2^j_i``, exactly."""
    out = np.ldexp(a.real, j[:, None])
    return out + 1j * np.ldexp(a.imag, j[:, None]) if np.iscomplexobj(a) else out


def test_scaling_one_node_by_a_power_of_two_changes_no_bit():
    # node i's analysis row times 2^j_i and its synthesis row times 2^-j_i
    # leave every node term, so S, the bounds, the verdicts and a tensor
    # product, unchanged bit for bit; a mapped row moves by exactly 2^j_i.
    # Every third system carries a node with a zero row and huge others
    rng = np.random.default_rng(26)
    for trial in range(12):
        dim, complex_ = 2 + trial % 3, trial % 2 == 1
        second = random_valid_system(rng, 2, complex_=complex_)
        system = random_valid_system(rng, dim, complex_=complex_, asym=0.3,
                                     target=random_target(rng, dim, complex_))
        j = rng.integers(-600, 601, size=len(system.measure))
        if trial % 3 == 0:  # a node that adds nothing sets no scale
            system, j = _with_dead_node(system), np.append(j, 0)
        moved = BiframeSystem.from_samples(system.measure, _rows_times(system.analysis.samples, j),
                                           _rows_times(system.synthesis.samples, -j),
                                           system.target)
        assert np.array_equal(frame_operator(moved), frame_operator(system))
        report, got = optimal_bounds(system), optimal_bounds(moved)
        assert (got.lower_opt, got.upper_opt, got.valid) == (report.lower_opt, report.upper_opt,
                                                              report.valid)
        claims = ((report.lower_opt / 2.0, 2.0 * report.upper_opt),
                  (2.0 * report.lower_opt, 2.0 * report.upper_opt))
        verdicts = [[(v.ok, v.lower_ok, v.upper_ok) for v in (check_bounds(s, *claim)
                                                            for claim in claims)]
                    for s in (system, moved)]
        assert verdicts[0] == verdicts[1] == [(True, True, True), (False, False, True)]
        pair, moved_pair = (tensor.tensor_system(s, second).combined for s in (system, moved))
        assert np.array_equal(frame_operator(moved_pair), frame_operator(pair))
        a, b = optimal_bounds(pair), optimal_bounds(moved_pair)
        assert (a.lower_opt, a.upper_opt, a.valid) == (b.lower_opt, b.upper_opt, b.valid)
        u = random_target(rng, dim, complex_)
        rows, moved_rows = (opcalc.apply_operator(s, u).system.analysis.samples
                            for s in (system, moved))
        assert np.array_equal(moved_rows, _rows_times(rows, j))
