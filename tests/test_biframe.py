"""Systems, quadratic forms, optimal bounds, verification, classification."""

import math
import warnings

import numpy as np
import pytest

import biframekit as bk
from biframekit import errors
from biframekit.app.fixtures import fixture, fixture_record
from biframekit.biframe import NonSelfAdjointWarning, analysis, synthesis
from helpers import random_system, random_valid_system


# ---------------------------------------------------------------------------
# construction and validation


def test_from_samples_shapes():
    m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.eye(2))
    assert sys_.dim == 2
    assert sys_.field_name == "real"


def test_mismatched_node_count_rejected():
    m = bk.DiscreteMeasure(("a", "b", "c"), np.ones(3))
    with pytest.raises(errors.DimensionMismatchError):
        bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.eye(2))


def test_mismatched_space_dim_rejected():
    m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    with pytest.raises(errors.DimensionMismatchError):
        bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.eye(3))


def test_mixed_field_rejected():
    m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    with pytest.raises(errors.FieldMismatchError):
        bk.BiframeSystem.from_samples(m, np.eye(2, dtype=complex), np.eye(2), np.eye(2))


def test_with_target_keeps_samples():
    sys_ = fixture("example-3-3")
    moved = sys_.with_target(np.eye(3))
    assert moved.analysis is sys_.analysis
    assert moved.synthesis is sys_.synthesis
    assert np.allclose(moved.target, np.eye(3))


# ---------------------------------------------------------------------------
# analysis / synthesis / form


def test_analysis_synthesis_adjoint_pair():
    rng = np.random.default_rng(11)
    sys_ = random_system(rng, 4, complex_=True, nodes=7)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    lhs = np.sum(sys_.measure.weights * analysis(sys_.analysis, f) * np.conj(c))
    rhs = np.vdot(synthesis(sys_.analysis, sys_.measure, c), f)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    with pytest.raises(errors.DimensionMismatchError):
        synthesis(sys_.analysis, bk.DiscreteMeasure(tuple("abc"), np.ones(3)), c)


def test_form_equals_frame_operator_quadratic():
    rng = np.random.default_rng(5)
    for trial in range(25):
        complex_ = trial % 2 == 0
        sys_ = random_system(rng, int(rng.integers(1, 6)), complex_=complex_)
        s = bk.frame_operator(sys_)
        f = rng.normal(size=sys_.dim)
        if complex_:
            f = f + 1j * rng.normal(size=sys_.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonSelfAdjointWarning)
            got = bk.biframe_form(sys_, f)
        want = np.real(np.vdot(f, s @ f))
        assert got == pytest.approx(want, abs=1e-9 * max(1, abs(want)))


def test_form_scales_quadratically():
    sys_ = fixture("example-3-3")
    f = np.array([1.0, -2.0, 0.5])
    assert bk.biframe_form(sys_, 3.0 * f) == pytest.approx(9.0 * bk.biframe_form(sys_, f))


def test_form_warns_when_frame_operator_is_skew():
    m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    # S = [[0, -1], [1, 0]]: purely skew, so the form keeps an imaginary part
    sys_ = bk.BiframeSystem.from_samples(
        m,
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
        np.eye(2, dtype=complex),
    )
    with pytest.warns(NonSelfAdjointWarning):
        bk.biframe_form(sys_, np.array([1.0, 1.0j]))


def test_swap_transposes_frame_operator():
    sys_ = fixture("example-3-11")
    flipped = bk.swap(sys_)
    assert np.allclose(bk.frame_operator(flipped), bk.frame_operator(sys_).conj().T)
    a, b = bk.optimal_bounds(sys_), bk.optimal_bounds(flipped)
    assert a.lower_opt == pytest.approx(b.lower_opt, abs=1e-9)
    assert a.upper_opt == pytest.approx(b.upper_opt, abs=1e-9)


# ---------------------------------------------------------------------------
# golden systems


def test_partition_swap_frame_operator():
    sys_ = fixture("example-3-3")
    assert np.allclose(bk.frame_operator(sys_), np.diag([4.0, 3.0, 2.0]), atol=1e-12)


def test_partition_swap_optimal_bounds():
    report = bk.optimal_bounds(fixture("example-3-3"))
    assert report.valid
    assert report.lower_opt == pytest.approx(2.0, abs=1e-9)
    assert report.upper_opt == pytest.approx(4.0, abs=1e-9)


def test_quadrature_system_frame_operator():
    sys_ = fixture("example-3-4")
    want = np.array([[1.0, 1.0, 1.0], [4.0 / 3.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert np.allclose(bk.frame_operator(sys_), want, atol=1e-12)


def test_quadrature_system_is_refuted():
    report = bk.optimal_bounds(fixture("example-3-4"))
    assert not report.valid
    assert report.lower_opt is None
    # the form actually dips negative, along +-(1, -1, 0)
    w = report.witness_negative_form
    assert w is not None
    direction = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(w - direction), np.linalg.norm(w + direction)) < 1e-8
    assert bk.biframe_form(fixture("example-3-4"), np.array([1.0, -1.0, 0.0])) == pytest.approx(
        -1.0 / 3.0, abs=1e-12
    )


def test_truncation_system_bounds():
    report = bk.optimal_bounds(fixture("example-3-5"))
    assert report.lower_opt == pytest.approx(1.0, abs=1e-9)
    assert report.upper_opt == pytest.approx(2.0, abs=1e-9)


def test_promoted_diagonal_bounds_and_witness():
    report = bk.optimal_bounds(fixture("example-3-11"))
    assert report.valid
    assert report.lower_opt == pytest.approx(1.25, abs=1e-9)
    assert report.upper_opt == pytest.approx(11.0, abs=1e-9)
    assert np.abs(report.witness_lower) == pytest.approx([1.0, 0.0, 0.0], abs=1e-8)


def test_zero_target_is_degenerate():
    sys_ = fixture("example-3-3").with_target(np.zeros((3, 3)))
    report = bk.optimal_bounds(sys_)
    assert report.degenerate
    assert report.lower_opt == np.inf
    assert report.valid


def test_bounds_near_the_top_of_the_float64_range():
    # Herm(S) = diag(1.5e308, 1e308): symmetrising and flooring halve before
    # they add, so no sum overflows (warnings are errors in this suite)
    m = bk.DiscreteMeasure(("a", "b"), np.array([1.5e308, 1e308]))
    sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.eye(2))
    report = bk.optimal_bounds(sys_)
    assert report.valid
    assert report.upper_opt == pytest.approx(1.5e308, rel=1e-14)
    assert report.lower_opt == pytest.approx(1e308, rel=1e-14)
    assert bk.check_bounds(sys_, 0.5e308, 1.6e308).ok


# ---------------------------------------------------------------------------
# claimed-bound verification


def test_verify_accepts_true_claim_rejects_false():
    sys_ = fixture("example-3-3")
    assert bk.verify_bounds(sys_, 2.0, 5.0)
    assert bk.verify_bounds(sys_, 1.5, 4.0)
    assert not bk.verify_bounds(sys_, 2.5, 5.0)
    assert not bk.verify_bounds(sys_, 2.0, 3.9)


def test_check_bounds_reports_margins_and_witness():
    sys_ = fixture("example-3-3")  # Herm = diag(4,3,2), K K* = I
    out = bk.check_bounds(sys_, 3.0, 4.0)
    assert not out.lower_ok and out.upper_ok
    assert out.lower_margin == pytest.approx(-1.0, abs=1e-9)
    assert np.abs(out.witness) == pytest.approx([0.0, 0.0, 1.0], abs=1e-8)


def test_check_bounds_rejects_malformed_claims():
    sys_ = fixture("example-3-3")
    for lo, hi in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (np.nan, 1.0), (1.0, np.inf)]:
        with pytest.raises(errors.MalformedBoundsError):
            bk.check_bounds(sys_, lo, hi)


@pytest.mark.parametrize("target, lower", [
    (np.eye(2), 1e-10),
    (np.array([[1.0, 0.3], [0.2, 1.0]]), 5e-10),
])
def test_check_bounds_refutes_a_positive_lower_claim_where_none_exists(target, lower):
    # F = G = diag(1, 0): the form vanishes on e_2, so no positive lower
    # constant exists, however small the claim
    m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    sys_ = bk.BiframeSystem.from_samples(m, np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), target)
    assert bk.optimal_bounds(sys_).lower_opt is None
    out = bk.check_bounds(sys_, lower, 1.0)
    assert out.ok is False and not out.lower_ok and out.upper_ok
    w = out.witness
    kw = target.T @ w
    assert bk.biframe_form(sys_, w) < lower * float(kw @ kw)


@pytest.mark.parametrize("lower, refuted_along_e2", [(1e-13, False), (1e-3, True)])
def test_check_bounds_ships_a_lower_witness_only_where_it_refutes_the_claim(lower,
                                                                            refuted_along_e2):
    # F = G = diag(1, 1e-6): the form is PSD, 1e-12 along e_2, so its lower
    # constant is within tolerance of zero and every lower claim is refuted;
    # e_2 breaks only the claims above 1e-12.  With K = 2^j I and the claim
    # scaled by 4^-j the verdict is the same
    m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    f = np.diag([1.0, 1e-6])
    for j in (-300, 0, 300):
        sys_ = bk.BiframeSystem.from_samples(m, f, f, math.ldexp(1.0, j) * np.eye(2))
        report = bk.optimal_bounds(sys_)
        assert report.lower_opt is None and report.witness_negative_form is None
        out = bk.check_bounds(sys_, math.ldexp(lower, -2 * j), 1e200)
        assert out.ok is False and not out.lower_ok and out.upper_ok
        if refuted_along_e2:
            assert np.abs(out.witness) == pytest.approx([0.0, 1.0], abs=1e-12)
            assert bk.biframe_form(sys_, out.witness) < lower * float(out.witness @ out.witness)
        else:
            assert out.witness is None
    # at K = 2^-600 I, ||K* e_2||^2 = 2^-1200 sits far below the form: e_2
    # refutes no claim, and the form / 4^-600 it is decided by overflows
    sys_ = bk.BiframeSystem.from_samples(m, f, f, math.ldexp(1.0, -600) * np.eye(2))
    assert bk.check_bounds(sys_, lower, 2.0).witness is None


@pytest.mark.parametrize("j", [-600, -540, 0, 540, 600])
def test_check_bounds_ships_the_null_witness_at_any_target_scale(j):
    # F = G = [[1, 0]]: the form vanishes on e_2, where ||K* e_2||^2 = c^2 > 0
    # refutes the claim; the test is decided on K / 2^e, so c^2 never
    # underflows to 0 (it did at c = 2^-540) nor overflows
    m = bk.DiscreteMeasure(("a",), np.ones(1))
    c = math.ldexp(1.0, j)
    sys_ = bk.BiframeSystem.from_samples(m, [[1.0, 0.0]], [[1.0, 0.0]], c * np.eye(2))
    out = bk.check_bounds(sys_, 1.0, 2.0)
    assert not out.lower_ok and out.upper_ok
    assert np.array_equal(out.witness, [0.0, 1.0])


def test_optimal_bounds_verify_for_random_valid_systems():
    rng = np.random.default_rng(77)
    for trial in range(20):
        sys_ = random_valid_system(rng, int(rng.integers(1, 6)), complex_=trial % 2 == 1)
        report = bk.optimal_bounds(sys_)
        assert report.valid
        lo, up = report.lower_opt, report.upper_opt
        # note lo > up is possible (the two constants reference different
        # quadratic forms); claims however must be ordered, so clamp
        assert bk.verify_bounds(sys_, min(lo, up) * (1 - 1e-12), up * (1 + 1e-12))
        # pushing past either optimal constant must fail on that side
        too_high_lo = bk.check_bounds(sys_, lo * 1.01, max(up, lo) * 1.01)
        assert not too_high_lo.lower_ok
        too_low_up = bk.check_bounds(sys_, min(lo, up * 0.98), up * 0.99)
        assert not too_low_up.upper_ok


# ---------------------------------------------------------------------------
# classification


def test_classify_parseval_orthonormal_family():
    m = bk.DiscreteMeasure(("a", "b", "c"), np.ones(3))
    sys_ = bk.BiframeSystem.from_samples(m, np.eye(3), np.eye(3), np.eye(3))
    c = bk.classify(sys_)
    assert c.families_equal and c.tight and c.parseval
    assert c.tight_constant == pytest.approx(1.0)
    assert not c.bessel_only


def test_classify_tight_but_not_parseval():
    m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    f = np.sqrt(3.0) * np.eye(2)
    sys_ = bk.BiframeSystem.from_samples(m, f, f, np.eye(2))
    c = bk.classify(sys_)
    assert c.tight and not c.parseval
    assert c.tight_constant == pytest.approx(3.0)


def test_classify_bessel_only_for_refuted_system():
    c = bk.classify(fixture("example-3-4"))
    assert c.bessel_only
    assert not c.tight


def test_classify_distinct_families():
    c = bk.classify(fixture("example-3-3"))
    assert not c.families_equal
    assert not c.tight  # Herm = diag(4,3,2) is no multiple of I


def test_fixture_claims_hold_except_refuted_one():
    for name in ("example-3-3", "example-3-5", "example-3-11", "example-5-3-left",
                 "example-5-3-right"):
        rec = fixture_record(name)
        assert bk.verify_bounds(rec.system, *rec.claimed_bounds), name
    rec = fixture_record("example-3-4")
    assert not bk.verify_bounds(rec.system, *rec.claimed_bounds)
