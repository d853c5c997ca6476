"""Construction calculus: each rule's guaranteed bounds, laws and error paths.

Three rules ship ``certified=False`` because their stated lower constants
are claims this toolkit could not confirm: the coefficient-sum combination,
the long product chain and the positive perturbation.  Their dominance
behaviour is measured (see the rate test at the bottom) instead of asserted;
the perturbation's stated law is refuted outright by a 2x2 counterexample.
"""

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import biframekit as bk
from biframekit import errors, linalg, opcalc
from biframekit.app import save
from biframekit.app.cli import main
from biframekit.app.fixtures import fixture
from helpers import random_matrix, random_psd, random_system, random_valid_system


@pytest.fixture
def promoted_diagonal():
    return fixture("example-3-11")


def _identity_version(system):
    return system.with_target(np.eye(system.dim, dtype=system.target.dtype))


# ---------------------------------------------------------------------------
# promote / restrict


class TestPromote:
    def test_golden_promotion(self, promoted_diagonal):
        plain = _identity_version(promoted_diagonal)
        res = opcalc.promote(plain, promoted_diagonal.target)
        assert res.rule == "promote"
        assert res.certified
        assert res.guaranteed_lower == pytest.approx(5.0 / 4.0, abs=1e-9)
        assert res.guaranteed_upper == pytest.approx(11.0, abs=1e-9)
        assert np.allclose(res.system.target, promoted_diagonal.target)

    def test_identity_target_is_noop_on_bounds(self, promoted_diagonal):
        plain = _identity_version(promoted_diagonal)
        res = opcalc.promote(plain, np.eye(3))
        before = bk.optimal_bounds(plain)
        assert res.guaranteed_lower == pytest.approx(before.lower_opt)
        assert res.guaranteed_upper == pytest.approx(before.upper_opt)

    def test_doubled_identity_quarters_the_lower_bound(self, promoted_diagonal):
        plain = _identity_version(promoted_diagonal)
        res = opcalc.promote(plain, 2.0 * np.eye(3))
        assert res.guaranteed_lower == pytest.approx(5.0 / 4.0, abs=1e-9)

    def test_rejects_zero_target(self, promoted_diagonal):
        with pytest.raises(errors.ZeroOperatorError):
            opcalc.promote(_identity_version(promoted_diagonal), np.zeros((3, 3)))

    def test_rejects_non_identity_input_target(self, promoted_diagonal):
        with pytest.raises(errors.NotABiframeError):
            opcalc.promote(promoted_diagonal, np.eye(3))

    def test_rejects_invalid_system(self):
        with pytest.raises(errors.NotABiframeError):
            opcalc.promote(fixture("example-3-4"), 2.0 * np.eye(3))


class TestRestrictToRange:
    def test_projection_target_keeps_lower_bound(self):
        # K an orthogonal projection: the pseudo-inverse has norm 1, so the
        # guaranteed lower bound on the range equals the input's constant.
        m = bk.DiscreteMeasure(("a", "b", "c"), np.ones(3))
        f = np.sqrt(1.5) * np.eye(3)
        sys_ = bk.BiframeSystem.from_samples(m, f, f, np.diag([1.0, 1.0, 0.0]))
        res = opcalc.restrict_to_range(sys_)
        assert res.system.dim == 2
        assert res.guaranteed_lower == pytest.approx(1.5, abs=1e-9)
        compressed = bk.optimal_bounds(res.system)
        assert compressed.lower_opt == pytest.approx(1.5, abs=1e-9)
        assert compressed.upper_opt == pytest.approx(1.5, abs=1e-9)

    def test_invertible_target_spans_everything(self, promoted_diagonal):
        res = opcalc.restrict_to_range(promoted_diagonal)
        assert res.system.dim == 3
        # ||K pseudo-inverse||^2 = 1/4 for K = diag(2,-2,-2)
        assert res.guaranteed_lower == pytest.approx(1.25 * 4.0, abs=1e-8)
        assert res.guaranteed_upper == pytest.approx(11.0, abs=1e-9)
        assert bk.verify_bounds(res.system, res.guaranteed_lower, res.guaranteed_upper)

    def test_truncation_example(self):
        res = opcalc.restrict_to_range(fixture("example-3-5"))
        assert res.system.dim == 3
        after = bk.optimal_bounds(res.system)
        assert after.lower_opt >= 1.0 - 1e-9
        assert after.upper_opt <= 2.0 + 1e-9

    def test_rejects_invalid_input(self):
        with pytest.raises(errors.NotABiframeError):
            opcalc.restrict_to_range(fixture("example-3-4"))

    def test_rejects_a_zero_target_as_no_biframe(self, promoted_diagonal):
        # optimal_bounds decides the zero target (degenerate); nothing else does
        with pytest.raises(errors.NotABiframeError):
            opcalc.restrict_to_range(promoted_diagonal.with_target(np.zeros((3, 3))))

    def test_identity_target_keeps_the_cached_spectrum(self, monkeypatch):
        # onto range(I) the basis is exactly I: the result is the input
        # retargeted, and shares its decomposition of Herm(S)
        base = fixture("example-3-3").with_target(np.eye(3))
        want = bk.optimal_bounds(base)
        calls = []
        real = linalg.hermitian_eigen
        monkeypatch.setattr(linalg, "hermitian_eigen",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        res = opcalc.restrict_to_range(base)
        got = bk.optimal_bounds(res.system)
        assert calls == []
        assert np.array_equal(res.system.analysis.samples, base.analysis.samples)
        assert (got.lower_opt, got.upper_opt) == (want.lower_opt, want.upper_opt)


# ---------------------------------------------------------------------------
# sums and products of targets


class TestCombineSum:
    def test_single_term_recovers_input_constants(self, promoted_diagonal):
        k = promoted_diagonal.target
        res = opcalc.combine_sum(promoted_diagonal, [(1.0, k)])
        assert res.guaranteed_lower == pytest.approx(1.25, abs=1e-9)
        assert res.guaranteed_upper == pytest.approx(11.0, abs=1e-9)
        assert np.allclose(res.system.target, k)

    def test_two_term_stated_constants(self, promoted_diagonal):
        k = promoted_diagonal.target
        res = opcalc.combine_sum(promoted_diagonal, [(1.0, k), (1.0, k)])
        assert res.rule == "sum"
        assert not res.certified  # stated claim, not a certified constant
        # stated: [max|a|^2 (1/A1 + 1/A2)]^{-1} = 1/(2/1.25) = 0.625
        assert res.guaranteed_lower == pytest.approx(0.625, abs=1e-9)
        assert res.guaranteed_upper == pytest.approx(11.0, abs=1e-9)
        assert np.allclose(res.system.target, 2.0 * k)
        # ... and the pencil shows the claim overshoots: optimal is 1.25/4
        after = bk.optimal_bounds(res.system)
        assert after.lower_opt == pytest.approx(1.25 / 4.0, abs=1e-9)
        assert after.lower_opt < res.guaranteed_lower

    def test_three_term_stated_constants(self, promoted_diagonal):
        k = promoted_diagonal.target
        res = opcalc.combine_sum(promoted_diagonal, [(1.0, k), (0.5, k), (0.25, np.eye(3))])
        # n = 3, max |a|^2 = 1: stated lower = min(A_j) / 3
        lows = [bk.optimal_bounds(promoted_diagonal.with_target(t)).lower_opt
                for t in (k, k, np.eye(3))]
        assert res.guaranteed_lower == pytest.approx(min(lows) / 3.0, rel=1e-9)
        assert np.allclose(res.system.target, 1.5 * k + 0.25 * np.eye(3))

    @pytest.mark.parametrize("c", [1e-170, 1e200, 1e100, 1e-100])
    def test_coefficients_at_any_scale(self, c):
        # the stated constant is 0.4 / c^2: 1e-170 is not taken for zero, and
        # 1e200 does not overflow (warnings are errors in this suite); where
        # 0.4 / c^2 is no float64 the rule raises instead of shipping inf or 0
        base = fixture("example-3-3").with_target(np.eye(3))
        want = opcalc.combine_sum(base, [(1.0, np.eye(3)), (1.0, 2.0 * np.eye(3))])
        assert want.guaranteed_lower == pytest.approx(0.4, rel=1e-12)
        if c in (1e-170, 1e200):
            with pytest.raises(OverflowError, match="float64 range"):
                opcalc.combine_sum(base, [(c, np.eye(3)), (c, 2.0 * np.eye(3))])
        else:
            res = opcalc.combine_sum(base, [(c, np.eye(3)), (c, 2.0 * np.eye(3))])
            assert res.guaranteed_lower * c * c == pytest.approx(0.4, rel=1e-12)

    def test_rejects_empty_and_all_zero(self, promoted_diagonal):
        with pytest.raises(ValueError):
            opcalc.combine_sum(promoted_diagonal, [])
        with pytest.raises(errors.ZeroOperatorError):
            opcalc.combine_sum(promoted_diagonal, [(0.0, promoted_diagonal.target)])

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_rejects_a_non_finite_coefficient(self, promoted_diagonal, coeff):
        with pytest.raises(ValueError, match="must be finite"):
            opcalc.combine_sum(promoted_diagonal, [(coeff, promoted_diagonal.target)])


class TestCombineProduct:
    def test_scaled_identity_right_factor(self, promoted_diagonal):
        res = opcalc.combine_product(promoted_diagonal, 3.0 * np.eye(3))
        assert res.rule == "product"
        assert res.certified
        assert res.guaranteed_lower == pytest.approx(1.25 / 9.0, abs=1e-10)
        assert res.guaranteed_upper == pytest.approx(11.0, abs=1e-9)
        assert np.allclose(res.system.target, promoted_diagonal.target @ (3.0 * np.eye(3)))

    def test_squared_target(self, promoted_diagonal):
        k = promoted_diagonal.target
        res = opcalc.combine_product(promoted_diagonal, k)
        # ||K||^2 = 4
        assert res.guaranteed_lower == pytest.approx(1.25 / 4.0, abs=1e-9)
        after = bk.optimal_bounds(res.system)
        assert after.lower_opt >= res.guaranteed_lower - 1e-9

    def test_rejects_zero_right_factor(self, promoted_diagonal):
        with pytest.raises(errors.ZeroOperatorError):
            opcalc.combine_product(promoted_diagonal, np.zeros((3, 3)))


class TestProductChain:
    def test_stated_constants(self, promoted_diagonal):
        k = promoted_diagonal.target
        res = opcalc.product_chain(promoted_diagonal, [k, np.eye(3), 2.0 * k])
        assert res.rule == "product-chain"
        assert not res.certified
        assert np.allclose(res.system.target, k @ np.eye(3) @ (2.0 * k))
        # stated constant: worst per-factor lower bound over the product of
        # squared norms of all but the last factor.  Per-factor constants here
        # are 1.25 (K), 5 (I) and 1.25/4 (2K); penalty = ||K||^2 * ||I||^2 = 4.
        assert res.guaranteed_lower == pytest.approx((1.25 / 4.0) / 4.0, rel=1e-9)

    def test_needs_at_least_two_factors(self, promoted_diagonal):
        with pytest.raises(ValueError):
            opcalc.product_chain(promoted_diagonal, [promoted_diagonal.target])

    @pytest.mark.parametrize("where", [0, 1])
    def test_a_zero_factor_is_no_biframe(self, promoted_diagonal, where):
        # the zero factor fails the validity every factor needs, first or last
        factors = [promoted_diagonal.target, np.eye(3)]
        factors[where] = np.zeros((3, 3))
        with pytest.raises(errors.NotABiframeError, match=f"chain term #{where}"):
            opcalc.product_chain(promoted_diagonal, factors)


# ---------------------------------------------------------------------------
# operator push-forward, dual, conjugations


class TestApplyOperator:
    def test_diagonal_stretch(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.eye(2))
        u = np.diag([1.0, 2.0])
        res = opcalc.apply_operator(sys_, u)
        assert res.rule == "apply"
        assert np.allclose(bk.frame_operator(res.system), np.diag([1.0, 4.0]), atol=1e-12)
        assert np.allclose(res.system.target, u)
        assert res.guaranteed_lower == pytest.approx(1.0, abs=1e-9)
        assert res.guaranteed_upper == pytest.approx(4.0, abs=1e-9)

    def test_frame_operator_conjugation_law(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            sys_ = random_system(rng, int(rng.integers(1, 6)), complex_=trial % 2 == 0)
            u = rng.normal(size=(sys_.dim, sys_.dim))
            if trial % 2 == 0:
                u = u + 1j * rng.normal(size=u.shape)
            res = opcalc.apply_operator(sys_, u)
            s = bk.frame_operator(sys_)
            pushed = bk.frame_operator(res.system)
            want = u @ s @ u.conj().T
            assert np.linalg.norm(pushed - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_invalid_input_keeps_upper_only(self):
        res = opcalc.apply_operator(fixture("example-3-4"), np.eye(3))
        assert res.guaranteed_lower is None
        assert np.isfinite(res.guaranteed_upper)

    def test_dimension_mismatch(self, promoted_diagonal):
        with pytest.raises(errors.DimensionMismatchError):
            opcalc.apply_operator(promoted_diagonal, np.eye(2))


class TestCanonicalDual:
    def test_doubled_parseval_halves(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        f = np.sqrt(2.0) * np.eye(2)
        sys_ = bk.BiframeSystem.from_samples(m, f, f, np.eye(2))
        res = opcalc.canonical_dual(sys_, np.eye(2))
        assert res.rule == "dual"
        assert np.allclose(bk.frame_operator(res.system), np.diag([0.5, 0.5]), atol=1e-12)
        # guarantees: (A/||S||^2, B ||S^-1||^2 ||K||^2) = (2/4, 2*(1/4)*1)
        assert res.guaranteed_lower == pytest.approx(0.5, abs=1e-9)
        assert res.guaranteed_upper == pytest.approx(0.5, abs=1e-9)

    def test_dual_requires_identity_target(self, promoted_diagonal):
        with pytest.raises(errors.NotABiframeError):
            opcalc.canonical_dual(promoted_diagonal, np.eye(3))

    def test_numerically_singular_frame_operator_refused(self):
        # valid, Herm(S) = diag(1, 2e-9, 1), but sigma_min / sigma_max of S is
        # about 2e-12: no inverse at tol 1e-9
        s = np.array([[1.0, 0.0, 1e3], [0.0, 2e-9, 0.0], [-1e3, 0.0, 1.0]])
        m = bk.DiscreteMeasure(("a", "b", "c"), np.ones(3))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(3), s.T, np.eye(3))
        assert bk.optimal_bounds(sys_).valid
        with pytest.raises(errors.SingularFrameOperatorError):
            opcalc.canonical_dual(sys_, np.eye(3))

    def test_rank_deficient_input_refused(self):
        # A singular frame operator can never carry a positive lower bound
        # against the identity, so the validity precondition trips first.
        m = bk.DiscreteMeasure(("a",), np.ones(1))
        sys_ = bk.BiframeSystem.from_samples(
            m, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.eye(2)
        )
        with pytest.raises(errors.NotABiframeError):
            opcalc.canonical_dual(sys_, np.eye(2))


class TestSandwich:
    def test_scaling(self, promoted_diagonal):
        res = opcalc.sandwich(promoted_diagonal, 2.0 * np.eye(3))
        assert res.guaranteed_lower == pytest.approx(1.25 / 4.0, abs=1e-9)
        assert res.guaranteed_upper == pytest.approx(44.0, abs=1e-9)
        assert np.allclose(res.system.target,
                           4.0 * promoted_diagonal.target)

    def test_zero_operator_rejected(self, promoted_diagonal):
        with pytest.raises(errors.ZeroOperatorError):
            opcalc.sandwich(promoted_diagonal, np.zeros((3, 3)))


class TestInverseConjugate:
    def test_round_trip_is_identity(self, promoted_diagonal):
        u = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        there = opcalc.inverse_conjugate(promoted_diagonal, u)
        back = opcalc.inverse_conjugate(there.system, np.linalg.inv(u))
        assert np.allclose(back.system.analysis.samples,
                           promoted_diagonal.analysis.samples, atol=1e-10)
        assert np.allclose(back.system.target, promoted_diagonal.target, atol=1e-10)

    def test_rejects_singular(self, promoted_diagonal):
        with pytest.raises(errors.SingularOperatorError):
            opcalc.inverse_conjugate(promoted_diagonal, np.diag([1.0, 1.0, 0.0]))


class TestCommutingTransform:
    def test_scalar_multiple_always_commutes(self, promoted_diagonal):
        res = opcalc.commuting_transform(promoted_diagonal, 3.0 * np.eye(3))
        assert res.rule == "commute"
        # ||T^-1||^2 = 1/9, ||T||^2 = 9
        assert res.guaranteed_lower == pytest.approx(1.25 * 9.0, abs=1e-8)
        assert res.guaranteed_upper == pytest.approx(99.0, abs=1e-8)
        # target is unchanged
        assert np.allclose(res.system.target, promoted_diagonal.target)

    def test_non_commuting_rejected(self, promoted_diagonal):
        t = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(errors.NotCommutingError):
            opcalc.commuting_transform(promoted_diagonal, t)

    def test_singular_transform_rejected(self, promoted_diagonal):
        with pytest.raises(errors.SingularOperatorError):
            opcalc.commuting_transform(promoted_diagonal, np.zeros((3, 3)))

    def test_commutation_is_decided_at_any_operator_scale(self):
        # T K and K T are formed from T / 2^e and K / 2^f: at 1e160 and 1e150
        # the plain commutator would overflow.  A commuting T of 1e160 passes
        # the test, but its upper constant B ||T||^2 ~ 1e321 is no float64
        system = bk.BiframeSystem.from_samples(
            bk.DiscreteMeasure(("a", "b", "c"), np.ones(3)),
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 1e150 * np.diag([1.0, 2.0]))
        with pytest.raises(errors.NotCommutingError, match="relative defect"):
            opcalc.commuting_transform(system, 1e160 * np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(OverflowError, match="float64 range"):
            opcalc.commuting_transform(system, 1e160 * np.diag([1.0, 3.0]))


class TestPerturbPositive:
    def test_zero_perturbation_is_identity(self, promoted_diagonal):
        res = opcalc.perturb_positive(promoted_diagonal, np.zeros((3, 3)))
        assert np.allclose(bk.frame_operator(res.system),
                           bk.frame_operator(promoted_diagonal), atol=1e-12)
        assert res.guaranteed_upper == pytest.approx(11.0, abs=1e-9)

    def test_identity_perturbation_quadruples(self, promoted_diagonal):
        res = opcalc.perturb_positive(promoted_diagonal, np.eye(3), 1)
        assert np.allclose(bk.frame_operator(res.system),
                           4.0 * bk.frame_operator(promoted_diagonal), atol=1e-10)
        assert res.guaranteed_upper == pytest.approx(44.0, abs=1e-8)

    def test_rank_one_squared(self, promoted_diagonal):
        res = opcalc.perturb_positive(promoted_diagonal, np.diag([1.0, 0.0, 0.0]), 2)
        herm = linalg.hermitian_part(bk.frame_operator(res.system))
        assert np.allclose(np.diag(herm), [20.0, 7.0, 11.0], atol=1e-10)

    def test_law_matrix_identity(self):
        rng = np.random.default_rng(99)
        for power in (1, 2, 3):
            sys_ = random_valid_system(rng, 4, asym=0.3)
            t = random_psd(rng, 4)
            res = opcalc.perturb_positive(sys_, t, power)
            bump = np.eye(4) + np.linalg.matrix_power(t, power)
            want = bump @ bk.frame_operator(sys_) @ bump.conj().T
            got = bk.frame_operator(res.system)
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_rejects_bad_power_and_non_psd(self, promoted_diagonal):
        with pytest.raises(ValueError):
            opcalc.perturb_positive(promoted_diagonal, np.eye(3), 0)
        with pytest.raises(errors.NotPSDError):
            opcalc.perturb_positive(promoted_diagonal, -np.eye(3))
        with pytest.raises(errors.NotPSDError):
            opcalc.perturb_positive(promoted_diagonal, np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_a_power_beyond_float64_raises_before_numpy_forms_it(self):
        # warnings are errors in this suite: (1e200)^2 must not reach numpy's
        # power, nor the bump be formed from inf
        base = fixture("example-3-3")
        with pytest.raises(OverflowError, match=r"perturbation T\^2 lies outside the float64"):
            opcalc.perturb_positive(base, 1e200 * np.eye(3), 2)
        # in range, c * I maps every sample by exactly g = 1 + c^n, and the
        # constants are exactly (A, B g^2)
        report = bk.optimal_bounds(base)
        for c, power in ((1e50, 2), (1e100, 1), (1.0, 3), (0.0, 1), (1e-170, 2)):
            res = opcalc.perturb_positive(base, c * np.eye(3), power)
            g = 1.0 + c ** power
            assert res.guaranteed_lower == report.lower_opt
            assert res.guaranteed_upper == report.upper_opt * g * g
            assert np.array_equal(res.system.analysis.samples, base.analysis.samples * g)
            assert np.array_equal(res.system.synthesis.samples, base.synthesis.samples * g)

    def test_hermitian_growth_claim_on_psd_inputs(self):
        """Stated law: Herm(S') - Herm(S) is PSD whenever S and T are PSD.

        The law is false for non-commuting ``S`` and ``T`` (conjugation is
        not monotone), which is why the rule keeps its stated lower constant
        only with ``certified=False``.  This 2x2 counterexample pins the
        refutation with hand-derived values: ``S = diag(1, 0.01)``,
        ``I + T = [[2, 1], [1, 2]]``, so ``S' = [[4.01, 2.02], [2.02, 1.04]]``
        and the growth ``[[3.01, 2.02], [2.02, 1.03]]`` has determinant
        ``-0.9801`` and eigenvalues ``2.02 +- sqrt(5.0605)``.  See the
        known-issues section of the README.
        """
        eps = 0.01
        s_root = np.diag([1.0, np.sqrt(eps)])
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        sys_ = bk.BiframeSystem.from_samples(m, s_root, s_root, np.eye(2))
        t = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = opcalc.perturb_positive(sys_, t, 1)
        perturbed = bk.frame_operator(res.system)
        assert np.allclose(perturbed, [[4.01, 2.02], [2.02, 1.04]], rtol=0, atol=1e-12)
        growth = (linalg.hermitian_part(perturbed)
                  - linalg.hermitian_part(bk.frame_operator(sys_)))
        bottom = np.linalg.eigvalsh(growth)[0]
        assert bottom == pytest.approx(2.02 - np.sqrt(5.0605), rel=0, abs=1e-12)
        assert not linalg.is_psd(growth), (
            f"growth turned PSD: eigenvalues {np.linalg.eigvalsh(growth)}"
        )
        assert res.certified is False


# ---------------------------------------------------------------------------
# transfer ratio


class TestMaxTransferRatio:
    def test_target_itself_has_ratio_one(self, promoted_diagonal):
        assert opcalc.max_transfer_ratio(
            promoted_diagonal, promoted_diagonal.target
        ) == pytest.approx(1.0, abs=1e-9)

    def test_scaling_doubles(self, promoted_diagonal):
        assert opcalc.max_transfer_ratio(
            promoted_diagonal, 2.0 * promoted_diagonal.target
        ) == pytest.approx(2.0, abs=1e-9)

    def test_rank_drop_hits_zero(self):
        m = bk.DiscreteMeasure(("a", "b", "c"), np.ones(3))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(3), np.eye(3), np.eye(3))
        assert opcalc.max_transfer_ratio(sys_, np.diag([1.0, 0.0, 0.0])) == 0.0

    def test_range_violation_rejected(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(errors.RangeNotContainedError):
            opcalc.max_transfer_ratio(sys_, np.diag([0.0, 1.0]))

    def test_a_zero_operator_on_a_zero_target_has_no_finite_ratio(self):
        # U = K = 0: ||U* f|| >= delta ||K* f|| holds for every delta
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert opcalc.max_transfer_ratio(sys_, np.zeros((2, 2))) == math.inf

    @pytest.mark.parametrize("k, u, ratio", [
        # ||U|| = 3e308 and U's range projection overflow; delta fits
        (np.ones((2, 2)), 1.5e308 * np.ones((2, 2)), 1.5e308),
        # K lies 2^600 below U: each operator takes its own power of two
        (math.ldexp(1.0, -600) * np.eye(2), np.eye(2), math.ldexp(1.0, 600)),
    ])
    def test_the_range_check_holds_at_any_pair_of_scales(self, k, u, ratio):
        # the residual is formed on U / 2^e against K / 2^f's basis, and
        # compared with tol (||U|| + ||K||) at the larger of the two scales
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert opcalc.max_transfer_ratio(sys_, u) == pytest.approx(ratio, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
    def test_ratio_at_any_operator_scale(self, c):
        # U U* under- or overflows at these scales; it is formed from U / 2^e
        m = bk.DiscreteMeasure(tuple("abcd"), np.ones(4))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(4), np.eye(4), np.eye(4))
        with np.errstate(over="raise", invalid="raise"):
            ratio = opcalc.max_transfer_ratio(sys_, c * np.diag([1.0, 0.5, 0.25, 2.0]))
        assert ratio == pytest.approx(0.25 * c, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("j", [-900, -500, 500, 900])
    def test_ratio_scales_exactly_with_a_power_of_two(self, promoted_diagonal, j):
        u = promoted_diagonal.target @ np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 2.0]])
        base = opcalc.max_transfer_ratio(promoted_diagonal, u)
        assert base > 0.0
        assert opcalc.max_transfer_ratio(promoted_diagonal, math.ldexp(1.0, j) * u) \
            == math.ldexp(base, j)

    @staticmethod
    def _pencil_ratio(u, k):
        """``delta`` by numpy alone: on an orthonormal basis ``Q`` of
        ``range(K)``, ``delta^2`` is the least eigenvalue of the pencil
        ``(Q* U U* Q, Q* K K* Q)``, whitened by a Cholesky factor of the
        second matrix (``K*`` is injective on ``range(K)``, and ``U*`` vanishes
        on its complement because ``range(U) <= range(K)``)."""
        left, sigma, _ = np.linalg.svd(k)
        q = left[:, sigma > 1e-9 * sigma[0]]
        qh = q.conj().T
        inv = np.linalg.inv(np.linalg.cholesky(qh @ k @ k.conj().T @ q))
        whitened = inv @ (qh @ u @ u.conj().T @ q) @ inv.conj().T
        return math.sqrt(np.linalg.eigvalsh(whitened)[0])

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("kind", ["identity", "dense", "rank-deficient"])
    def test_ratio_matches_an_eigvalsh_pencil(self, kind, complex_):
        # U = K M with M invertible, so range(U) = range(K); K and M are well
        # conditioned, so the oracle holds about 14 digits
        rng = np.random.default_rng([27, len(kind), complex_])
        for trial in range(6):
            dim = 2 + trial % 4
            q1, _ = np.linalg.qr(random_matrix(rng, dim, dim, complex_))
            q2, _ = np.linalg.qr(random_matrix(rng, dim, dim, complex_))
            sing = rng.uniform(0.5, 2.0, dim)
            if kind == "rank-deficient":
                sing[dim // 2:] = 0.0
            k = (np.eye(dim) if kind == "identity" else q1 @ np.diag(sing) @ q2).astype(q1.dtype)
            m = np.eye(dim) + 0.3 * random_matrix(rng, dim, dim, complex_) / np.sqrt(dim)
            system = random_valid_system(rng, dim, complex_=complex_, target=k)
            u = k @ m
            ratio = opcalc.max_transfer_ratio(system, u)
            assert ratio == pytest.approx(self._pencil_ratio(u, k), rel=1e-10, abs=0.0)
            if kind == "identity":
                assert ratio == pytest.approx(np.linalg.svd(u, compute_uv=False)[-1],
                                              rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("u_exp, k_exp", [(600, -600), (-600, 600)])
    def test_a_ratio_beyond_float64_raises_naming_it(self, u_exp, k_exp):
        # delta = 2^(u_exp - k_exp) sigma_min: 2^1200 overflows, 2^-1200 rounds to 0
        m = bk.DiscreteMeasure(tuple("abc"), np.ones(3))
        k = math.ldexp(1.0, k_exp) * np.eye(3)
        system = bk.BiframeSystem.from_samples(m, np.eye(3), np.eye(3), k)
        u = math.ldexp(1.0, u_exp) * np.diag([1.0, 0.5, 2.0])
        with pytest.raises(OverflowError, match="the transfer ratio lies outside the float64 range"):
            opcalc.max_transfer_ratio(system, u)
        # with U's exponent halved the ratio fits, scaled exactly
        small = math.ldexp(1.0, -u_exp // 2) * u
        assert opcalc.max_transfer_ratio(system, small) == math.ldexp(0.5, u_exp // 2 - k_exp)


# ---------------------------------------------------------------------------
# scaling checks


class TestTightScaling:
    def test_consistent_pair(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        f = np.sqrt(11.0 / 2.0) * np.eye(2)
        sys_ = bk.BiframeSystem.from_samples(m, f, f, 2.0 * np.eye(2))
        # Herm = (11/2) I; tight against KK* = 4I with constant 11/8 and
        # against I with 11/2; consistent because KK* is a multiple of I.
        assert opcalc.tight_scaling_check(sys_, 11.0 / 8.0, 11.0 / 2.0)

    def test_inconsistent_target(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        f = np.eye(2)
        sys_ = bk.BiframeSystem.from_samples(m, f, f, np.diag([1.0, 2.0]))
        with pytest.raises(errors.NotTightError):
            # Herm = I is not a multiple of KK* = diag(1,4)
            opcalc.tight_scaling_check(sys_, 1.0, 1.0)

    def test_rejects_nonpositive_constants(self, promoted_diagonal):
        with pytest.raises(errors.MalformedBoundsError):
            opcalc.tight_scaling_check(promoted_diagonal, 0.0, 1.0)


class TestParsevalCheck:
    def test_permutation_target(self):
        m = bk.DiscreteMeasure(("a", "b", "c"), np.ones(3))
        k = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(3), np.eye(3), k)
        assert opcalc.parseval_check(sys_)

    def test_stretched_target_fails(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.diag([2.0, 1.0]))
        assert not opcalc.parseval_check(sys_)

    def test_plain_orthonormal_family(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        sys_ = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.eye(2))
        assert opcalc.parseval_check(sys_)


# ---------------------------------------------------------------------------
# operators whose squared norms leave the float range

# 1e-170 * I: its squared norm underflows to 0, its inverse's overflows
_TINY = 1e-170 * np.eye(3)
_TINY_RULES = {
    "promote": lambda base: opcalc.promote(base, _TINY),
    "product": lambda base: opcalc.combine_product(base, _TINY),
    "apply": lambda base: opcalc.apply_operator(base, _TINY),
    "dual": lambda base: opcalc.canonical_dual(base, _TINY),
    "sandwich": lambda base: opcalc.sandwich(base, _TINY),
    "inverse-conjugate": lambda base: opcalc.inverse_conjugate(base, _TINY),
    "commute": lambda base: opcalc.commuting_transform(base, _TINY),
    "perturb": lambda base: opcalc.perturb_positive(base, _TINY),
}


@pytest.mark.parametrize("rule, cli", [(rule, False) for rule in _TINY_RULES]
                         + [(rule, True) for rule in ("product", "sandwich", "commute")],
                         ids=lambda v: v if isinstance(v, str) else ("cli" if v else "lib"))
def test_a_tiny_operator_saturates_the_guaranteed_constants(tmp_path, rule, cli):
    # a constant scaled by 1e-170 squared is no float64: the rule raises
    # OverflowError (the CLI exits 2 saying so) where a saturated square
    # shipped a false inf or 0; warnings are errors in this suite.  Only
    # perturb, whose I + T is about I, keeps both constants in range.
    base = fixture("example-3-3").with_target(np.eye(3))
    if cli:
        path = tmp_path / "plain.json"
        save(base, path)
        run = CliRunner().invoke(main, ["--format", "json", "construct", str(path), "--op", rule,
                                        "--operator", json.dumps(_TINY.tolist())])
        assert run.exit_code == 2, run.output
        assert run.exception is None or isinstance(run.exception, SystemExit)
        assert "outside the float64 range" in run.output
    elif rule == "perturb":
        result = _TINY_RULES[rule](base)
        assert all(0.0 < c < math.inf for c in (result.guaranteed_lower, result.guaranteed_upper))
    else:
        with pytest.raises(OverflowError, match="outside the float64 range"):
            _TINY_RULES[rule](base)


# an operator scaled by 2^j scales each constant by exactly 2^(p j): the
# rule's (lower, upper) powers p, each an even multiple of j
_U = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.3, 0.0, 1.0]])
_SCALED_RULES = {
    "promote": ((-2, 0), lambda base, plain, c: opcalc.promote(plain, c * _U)),
    "product": ((-2, 0), lambda base, plain, c: opcalc.combine_product(base, c * _U)),
    # both targets scale: the common lower bound by 2^-2j, and ||K_1||^2 by 2^2j
    "product-chain": ((-4, 0), lambda base, plain, c: opcalc.product_chain(
        plain, [c * _U, c * _U.T])),
    "sum": ((-2, 0), lambda base, plain, c: opcalc.combine_sum(
        plain, [(c, np.eye(3)), (-c, 2.0 * np.eye(3))])),
    "apply": ((0, 2), lambda base, plain, c: opcalc.apply_operator(base, c * _U)),
    "dual": ((0, 2), lambda base, plain, c: opcalc.canonical_dual(plain, c * _U)),
    "sandwich": ((-2, 2), lambda base, plain, c: opcalc.sandwich(base, c * _U)),
    "inverse-conjugate": ((-2, -2),
                          lambda base, plain, c: opcalc.inverse_conjugate(base, c * _U)),
    "commute": ((2, 2), lambda base, plain, c: opcalc.commuting_transform(plain, c * _U)),
}


def _scaled_exactly(value: float, power: int) -> float | None:
    """``value * 2^power`` if float64 holds it as a nonzero finite number."""
    try:
        out = math.ldexp(value, power)
    except OverflowError:
        return None
    return out if 0.0 < out < math.inf else None


@pytest.mark.parametrize("rule", list(_SCALED_RULES))
def test_an_operator_scaled_by_a_power_of_two_scales_the_constants_exactly(rule):
    # at every operator scale 2^j a constant is the unscaled one times
    # exactly 2^(p j), or the rule raises OverflowError because float64 holds
    # no such number; never a saturated 0 or inf (warnings are errors here)
    powers, call = _SCALED_RULES[rule]
    base = fixture("example-3-3")
    plain = base.with_target(np.eye(3))
    ref = call(base, plain, 1.0)
    for j in range(-1000, 1001, 7):
        want = [_scaled_exactly(c, p * j)
                for c, p in zip((ref.guaranteed_lower, ref.guaranteed_upper), powers)]
        if None in want:
            with pytest.raises(OverflowError, match="outside the float64 range"):
                call(base, plain, math.ldexp(1.0, j))
        else:
            got = call(base, plain, math.ldexp(1.0, j))
            assert [got.guaranteed_lower, got.guaranteed_upper] == want, j


@pytest.mark.parametrize("rule", ["promote", "product"])
def test_a_subnormal_lower_constant_ships_uncertified(rule):
    # (A / ||U||^2) at U x 1e160 is about 3.7e-321: a subnormal with some ten
    # significant bits, which may have rounded up past the true constant
    base = fixture("example-3-3")
    result = _SCALED_RULES[rule][1](base, base.with_target(np.eye(3)), 1e160)
    assert 0.0 < result.guaranteed_lower < np.finfo(np.float64).tiny
    assert result.guaranteed_lower == pytest.approx(3.725e-321, rel=1e-3)
    assert result.certified is False
    assert _SCALED_RULES[rule][1](base, base.with_target(np.eye(3)), 1e150).certified is True


def test_mapped_samples_outside_the_float_range_raise():
    # the constants (A, B 1e300) and (A / 1e300, B 1e300) fit, but the
    # synthesis samples 1e200 * 1e150 do not
    measure = bk.DiscreteMeasure(("a", "b"), np.ones(2))
    system = bk.BiframeSystem.from_samples(measure, 1e-200 * np.eye(2), 1e200 * np.eye(2),
                                           np.eye(2))
    for rule in (opcalc.apply_operator, opcalc.sandwich):
        with pytest.raises(OverflowError, match="samples or target"):
            rule(system, 1e150 * np.eye(2))


def _dominates(result, tol=1e-8):
    after = bk.optimal_bounds(result.system)
    lower_ok = (
        result.guaranteed_lower is None
        or (after.lower_opt is not None and after.lower_opt >= result.guaranteed_lower - tol)
    )
    upper_ok = after.upper_opt <= result.guaranteed_upper + tol
    return lower_ok and upper_ok


def test_certified_rules_dominate_on_random_inputs():
    rng = np.random.default_rng(1234)
    for trial in range(40):
        dim = int(rng.integers(2, 6))
        complex_ = trial % 3 == 0
        plain = random_valid_system(rng, dim, complex_=complex_,
                                    target=np.eye(dim, dtype=complex if complex_ else float))
        sys_ = random_valid_system(rng, dim, complex_=complex_, asym=0.2)

        k_new = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if complex_ else 0)
        u = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if complex_ else 0)
        u_inv = u + np.eye(dim) * (2.0 + linalg.spectral_norm(u))  # safely invertible

        assert _dominates(opcalc.promote(plain, k_new))
        assert _dominates(opcalc.restrict_to_range(sys_))
        assert _dominates(opcalc.combine_product(sys_, k_new))
        assert _dominates(opcalc.apply_operator(sys_, u))
        assert _dominates(opcalc.canonical_dual(plain, k_new))
        assert _dominates(opcalc.sandwich(sys_, u_inv))
        assert _dominates(opcalc.inverse_conjugate(sys_, u_inv))
        assert _dominates(opcalc.commuting_transform(sys_, 0.5 * np.eye(dim)))


def test_stated_sum_rule_dominance_rate_is_reported():
    # Not an assertion of dominance -- the stated constants overshoot on many
    # draws; we log the observed rate and only require the arithmetic to run.
    rng = np.random.default_rng(4321)
    held = total = 0
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        sys_ = random_valid_system(rng, dim)
        n_terms = int(rng.integers(2, 4))
        terms = [(float(rng.uniform(-1.5, 1.5)), rng.normal(size=(dim, dim)))
                 for _ in range(n_terms)]
        if all(abs(c) < 1e-12 for c, _ in terms):
            continue
        res = opcalc.combine_sum(sys_, terms)
        assert not res.certified
        total += 1
        held += _dominates(res)
    assert total > 0
    print(f"\nsum-rule stated guarantee held on {held}/{total} random draws")
