"""Operator quotients and the validity cross-checks built on them."""

import math

import numpy as np
import pytest

import biframekit as bk
from biframekit import errors, linalg, quotient
from biframekit.app.fixtures import fixture
from helpers import random_matrix, random_valid_system


class TestQuotientNorm:
    def test_diagonal_ratio(self):
        res = quotient.quotient_norm(np.diag([1.0, 1.0]), np.diag([2.0, 1.0]))
        assert res.exists
        assert res.norm == pytest.approx(1.0, abs=1e-12)  # max(1/2, 1/1)

    def test_shared_kernel(self):
        res = quotient.quotient_norm(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert res.exists
        assert res.norm == pytest.approx(1.0, abs=1e-12)

    def test_kernel_violation_puts_witness_in_gap(self):
        res = quotient.quotient_norm(np.eye(2), np.diag([1.0, 0.0]))
        assert not res.exists
        assert res.norm is None
        assert np.abs(res.violation_witness) == pytest.approx([0.0, 1.0], abs=1e-12)
        # the witness is the defining counterexample: Vw = 0 but Uw != 0
        assert np.linalg.norm(np.diag([1.0, 0.0]) @ res.violation_witness) < 1e-12
        assert np.linalg.norm(np.eye(2) @ res.violation_witness) > 0.9

    def test_invertible_denominator_reduces_to_operator_norm(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(1, 7))
            complex_ = trial % 2 == 0
            u = random_matrix(rng, n, n, complex_)
            v = random_matrix(rng, n, n, complex_) + 3.0 * np.eye(n)
            res = quotient.quotient_norm(u, v)
            assert res.exists
            want = linalg.spectral_norm(u @ np.linalg.inv(v))
            assert res.norm == pytest.approx(want, rel=1e-10)

    def test_achiever_attains_the_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            u = random_matrix(rng, 4, 4)
            v = random_matrix(rng, 4, 4) + 3.0 * np.eye(4)
            res = quotient.quotient_norm(u, v)
            f = res.achiever
            ratio = np.linalg.norm(u @ f) / np.linalg.norm(v @ f)
            assert ratio == pytest.approx(res.norm, rel=1e-8)

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
    def test_achiever_at_any_scale(self, c):
        # the achiever is normalised on v / 2^e: its squares never leave range
        with np.errstate(over="raise", invalid="raise"):
            res = quotient.quotient_norm(np.eye(3), c * np.diag([1.0, 2.0, 3.0]))
        assert res.norm == pytest.approx(1.0 / c, rel=1e-12, abs=0.0)
        assert np.array_equal(res.achiever, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("u, v", [
        (1e-200, 1e200), (2.0 ** -600, 2.0 ** 500), (1e200, 1e-200), (1.0, 1e-320)],
        ids=["1e-200/1e200", "2^-600/2^500", "1e200/1e-200", "1/1e-320"])
    def test_a_norm_beyond_float64_raises(self, u, v):
        # norms 1e-400, 2^-1100, 1e400 and 1e320: the plain arithmetic read
        # the first two as 0.0 ("U vanishes"), the third as nan, and failed
        # to decompose the fourth
        with pytest.raises(OverflowError, match=r"norm of \[U/V\] .*float64 range"):
            quotient.quotient_norm(u * np.eye(2), v * np.eye(2))

    @pytest.mark.parametrize("j, k", [(0, 0), (-900, -600), (600, 900), (-500, 400), (500, -400)])
    def test_norm_scales_by_powers_of_two_exactly(self, j, k):
        # decided on U / 2^e and V / 2^f, the norm of [2^j U / 2^k V] is
        # 2^(j - k) times that of [U/V] bit for bit, the achiever unchanged
        rng = np.random.default_rng(31)
        for trial in range(12):
            n = int(rng.integers(1, 6))
            complex_ = trial % 2 == 1
            v = random_matrix(rng, n, n, complex_)
            if trial % 3 == 0:  # a kernel that U respects
                v = v @ np.diag([1.0] * (n - 1) + [0.0])
            u = random_matrix(rng, n, n, complex_) @ v
            base = quotient.quotient_norm(u, v)
            res = quotient.quotient_norm(u * math.ldexp(1.0, j), v * math.ldexp(1.0, k))
            assert base.exists and res.exists
            assert res.norm == math.ldexp(base.norm, j - k)
            assert np.array_equal(res.achiever, base.achiever)

    def test_zero_numerator(self):
        res = quotient.quotient_norm(np.zeros((3, 3)), np.eye(3))
        assert res.exists
        assert res.norm == 0.0

    def test_zero_denominator_nonzero_numerator(self):
        res = quotient.quotient_norm(np.eye(2), np.zeros((2, 2)))
        assert not res.exists

    def test_both_zero(self):
        res = quotient.quotient_norm(np.zeros((2, 2)), np.zeros((2, 2)))
        assert res.exists
        assert res.norm == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            quotient.quotient_norm(np.eye(2), np.eye(3))


class TestValidityCrossCheck:
    def test_golden_system_agrees_both_ways(self):
        out = quotient.validity_cross_check(fixture("example-3-11"))
        assert out.pencil_valid and out.quotient_bounded
        assert out.verdict is True
        assert not out.indeterminate
        # norm of [K* / sqrt(Herm S)] = 2/sqrt(5); its square inverts the
        # optimal lower bound
        assert out.quotient_norm == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-9)
        assert out.lower_opt * out.quotient_norm**2 == pytest.approx(1.0, abs=1e-8)

    def test_invalid_psd_system_agrees_negatively(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        f = np.diag([1.0, 0.0])
        sys_ = bk.BiframeSystem.from_samples(m, f, f, np.eye(2))
        out = quotient.validity_cross_check(sys_)
        assert not out.pencil_valid
        assert not out.quotient_bounded
        assert out.verdict is False

    def test_indefinite_form_is_rejected(self):
        with pytest.raises(errors.NotPSDError):
            quotient.validity_cross_check(fixture("example-3-4"))

    def test_norm_inverts_lower_bound_on_random_systems(self):
        rng = np.random.default_rng(55)
        for trial in range(25):
            sys_ = random_valid_system(rng, int(rng.integers(1, 6)),
                                       complex_=trial % 2 == 1)
            out = quotient.validity_cross_check(sys_)
            assert out.verdict is True
            assert out.lower_opt * out.quotient_norm**2 == pytest.approx(1.0, rel=1e-6)


class TestTransformEquivalences:
    def test_identity_transform(self):
        out = quotient.transform_equivalences(fixture("example-3-11"), np.eye(3))
        assert out.all_agree
        assert out.pushed_valid is True
        assert not out.degenerate

    def test_invertible_transform_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            sys_ = random_valid_system(rng, 4)
            t = random_matrix(rng, 4, 4)
            t = t @ t.T + 0.5 * np.eye(4)  # PSD and invertible
            out = quotient.transform_equivalences(sys_, t)
            assert out.all_agree
            assert out.pushed_valid

    def test_rank_deficient_transform_random(self):
        rng = np.random.default_rng(22)
        agree = 0
        for _ in range(10):
            sys_ = random_valid_system(rng, 4)
            half = random_matrix(rng, 4, 2)
            out = quotient.transform_equivalences(sys_, half @ half.T)
            agree += out.all_agree
        assert agree == 10

    def test_zero_transform_is_degenerate(self):
        out = quotient.transform_equivalences(fixture("example-3-11"), np.zeros((3, 3)))
        assert out.degenerate
        assert out.all_agree  # everything collapses to the zero system

    def test_a_small_nonzero_pushed_target_is_not_degenerate(self):
        # T K = diag(1e-11, 0, 0) is small beside ||T|| ||K|| = 1 but not
        # zero, and the pushed system is valid against it
        sys_ = fixture("example-3-11").with_target(np.diag([1e-11, 1.0, 1.0]))
        out = quotient.transform_equivalences(sys_, np.diag([1.0, 0.0, 0.0]))
        assert not out.degenerate
        assert out.pushed_valid and out.all_agree

    def test_transform_may_be_indefinite(self):
        # the transform is arbitrary; only the system's form must be PSD
        out = quotient.transform_equivalences(fixture("example-3-11"), -np.eye(3))
        assert out.all_agree and out.pushed_valid

    def test_indefinite_system_form_rejected(self):
        with pytest.raises(errors.NotPSDError):
            quotient.transform_equivalences(fixture("example-3-4"), np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            quotient.transform_equivalences(fixture("example-3-11"), np.eye(2))


class TestCallersTolerance:
    """``validity_cross_check``, ``transform_equivalences`` and
    ``max_transfer_ratio`` hand their own ``tol`` to the quotient: a singular
    value ``s`` with ``1e-22 < s < 1e-9`` (relative) counts at the smaller
    tolerance and is a kernel at the larger, in every caller alike.  So do
    the rules' range bases and inverses."""

    S = 1e-10

    def _system(self):
        samples = np.diag([1.0, 1.0, self.S])  # Herm(S) = diag(1, 1, s^2), root diag(1, 1, s)
        return bk.BiframeSystem.from_samples(bk.DiscreteMeasure(tuple("abc"), np.ones(3)),
                                             samples, samples, np.eye(3))

    @pytest.mark.parametrize("tol, exists", [(1e-22, True), (1e-9, False)])
    def test_a_singular_value_between_two_tolerances_flips_every_quotient(self, tol, exists):
        system = self._system()
        cross = quotient.validity_cross_check(system, tol=tol)
        assert (cross.pencil_valid, cross.quotient_bounded, cross.verdict) == (exists,) * 3
        if exists:
            assert cross.quotient_norm == pytest.approx(1.0 / self.S, rel=1e-12)
        pushed = quotient.transform_equivalences(system, np.diag([1.0, 2.0, 4.0]), tol=tol)
        assert (pushed.pushed_valid, pushed.quotient_plain, pushed.quotient_pushed) \
            == (exists,) * 3
        ratio = bk.opcalc.max_transfer_ratio(system, np.diag([1.0, 1.0, self.S]), tol=tol)
        assert ratio == (pytest.approx(self.S, rel=1e-12) if exists else 0.0)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    def test_a_relative_singular_value_of_1e_11_flips_every_rank_verdict(self, tol):
        # each rule decides its rank, range or invertibility at its own tol:
        # a relative singular value of 1e-11 counts at 1e-12 and is a kernel
        # at 1e-9
        small, eye = np.diag([1.0, 1.0, 1e-11]), np.eye(3)
        measure = bk.DiscreteMeasure(tuple("abc"), np.ones(3))
        plain = bk.BiframeSystem.from_samples(measure, eye, eye, eye)
        root = np.diag([1.0, 1.0, 10 ** -5.5])  # S = diag(1, 1, 1e-11)
        ill = bk.BiframeSystem.from_samples(measure, root, root, eye)
        restricted = bk.opcalc.restrict_to_range(plain.with_target(small), tol=tol)
        if tol < 1e-11:
            assert restricted.system.dim == 3
            assert restricted.guaranteed_lower == pytest.approx(1e-22, rel=1e-12)
            assert bk.opcalc.max_transfer_ratio(plain.with_target(small), eye, tol=tol) \
                == pytest.approx(1.0, rel=1e-12)
            dual = bk.opcalc.canonical_dual(ill, eye, tol=tol)
            assert dual.guaranteed_lower == pytest.approx(1e-11, rel=1e-12)
            conjugated = bk.opcalc.inverse_conjugate(plain, small, tol=tol)
            assert conjugated.guaranteed_upper == pytest.approx(1e22, rel=1e-12)
            commuted = bk.opcalc.commuting_transform(plain, small, tol=tol)
            assert commuted.guaranteed_lower == pytest.approx(1e-22, rel=1e-12)
            return
        assert restricted.system.dim == 2
        with pytest.raises(errors.RangeNotContainedError):
            bk.opcalc.max_transfer_ratio(plain.with_target(small), eye, tol=tol)
        with pytest.raises(errors.NotABiframeError):  # S is singular at 1e-9: no valid input
            bk.opcalc.canonical_dual(ill, eye, tol=tol)
        for rule in (bk.opcalc.inverse_conjugate, bk.opcalc.commuting_transform):
            with pytest.raises(errors.SingularOperatorError, match="rank tolerance 1.0e-09"):
                rule(plain, small, tol=tol)

    def test_quotient_norm_decides_at_the_tol_it_is_given(self):
        # sigma / sigma_max = 1e-10 lies below DEFAULT_TOL: a kernel
        res = quotient.quotient_norm(np.eye(3), np.diag([1.0, 1.0, self.S]))
        assert not res.exists
        assert quotient.quotient_norm(np.eye(3), np.diag([1.0, 1.0, self.S]), tol=1e-12).exists
