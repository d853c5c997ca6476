"""Kronecker products of systems and the bound-multiplication law."""

import numpy as np
import pytest

import biframekit as bk
from biframekit import biframe, errors, linalg, tensor
from biframekit.app.fixtures import fixture
from helpers import random_matrix, random_valid_system, traced_spans


def test_kron_identity_blocks():
    np.testing.assert_allclose(tensor.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_of_complex_vectors_is_numpys_bit_for_bit():
    # 1-D complex factors: each entry is its own row
    a, b = np.array([1 + 2j, 3e-300j, 0.5]), np.array([2 - 1j, 1e200])
    assert tensor.kron(a, b).tobytes() == np.kron(a, b).tobytes()


def test_kron_diagonal_golden():
    got = tensor.kron(np.diag([2.0, 1.0]), np.diag([3.0, 1.0]))
    np.testing.assert_allclose(got, np.diag([6.0, 2.0, 3.0, 1.0]))


def test_kron_algebra_laws():
    rng = np.random.default_rng(71)
    for trial in range(30):
        complex_ = trial % 2 == 0
        a = random_matrix(rng, 3, 3, complex_)
        b = random_matrix(rng, 2, 2, complex_)
        c = random_matrix(rng, 3, 3, complex_)
        d = random_matrix(rng, 2, 2, complex_)
        scale = max(np.linalg.norm(x) for x in (a, b, c, d)) ** 2

        mixed = tensor.kron(a, b) @ tensor.kron(c, d)
        np.testing.assert_allclose(mixed, tensor.kron(a @ c, b @ d),
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(linalg.adjoint(tensor.kron(a, b)),
                                   tensor.kron(linalg.adjoint(a), linalg.adjoint(b)),
                                   atol=0)
        assert linalg.spectral_norm(tensor.kron(a, b)) == pytest.approx(
            linalg.spectral_norm(a) * linalg.spectral_norm(b), rel=1e-10)

        a_inv = a + 4.0 * np.eye(3)
        b_inv = b + 4.0 * np.eye(2)
        np.testing.assert_allclose(
            np.linalg.inv(tensor.kron(a_inv, b_inv)),
            tensor.kron(np.linalg.inv(a_inv), np.linalg.inv(b_inv)),
            atol=1e-12)


class TestTensorSystem:
    def test_golden_pair_combines(self):
        left = fixture("example-5-3-left")
        right = fixture("example-5-3-right")
        ts = tensor.tensor_system(left, right)

        assert ts.combined.dim == left.dim * right.dim
        s_left = biframe.frame_operator(left)
        s_right = biframe.frame_operator(right)
        s_comb = biframe.frame_operator(ts.combined)
        gap = np.linalg.norm(s_comb - tensor.kron(s_left, s_right))
        assert gap <= 1e-10 * np.linalg.norm(s_comb)

        # the factor claims (1, 2) and (1, 3) multiply into a verified (1, 6)
        assert biframe.verify_bounds(ts.combined, 1.0, 6.0)
        report = biframe.optimal_bounds(ts.combined)
        assert report.lower_opt == pytest.approx(2.0, abs=1e-9)
        assert report.upper_opt == pytest.approx(6.0, abs=1e-9)

    def test_measure_is_row_major_product(self):
        ts = tensor.tensor_system(fixture("example-5-3-left"),
                                  fixture("example-5-3-right"))
        m_left = fixture("example-5-3-left").measure
        m_right = fixture("example-5-3-right").measure
        assert len(ts.combined.measure) == len(m_left) * len(m_right)
        np.testing.assert_allclose(ts.combined.measure.weights,
                                   np.kron(m_left.weights, m_right.weights))

    def test_field_mismatch_rejected(self):
        m = bk.DiscreteMeasure(("a",), np.ones(1))
        real_sys = bk.BiframeSystem.from_samples(m, np.ones((1, 1)),
                                                 np.ones((1, 1)), np.eye(1))
        complex_sys = bk.BiframeSystem.from_samples(
            m, np.ones((1, 1), dtype=complex), np.ones((1, 1), dtype=complex),
            np.eye(1, dtype=complex))
        with pytest.raises(errors.FieldMismatchError):
            tensor.tensor_system(real_sys, complex_sys)

    def test_parseval_factors_give_parseval_product(self):
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        onb = bk.BiframeSystem.from_samples(m, np.eye(2), np.eye(2), np.eye(2))
        ts = tensor.tensor_system(onb, onb)
        cls = biframe.classify(ts.combined)
        assert cls.parseval

    def test_bounds_multiply_on_random_factors(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            s1 = random_valid_system(rng, int(rng.integers(1, 4)))
            s2 = random_valid_system(rng, int(rng.integers(1, 4)))
            ts = tensor.tensor_system(s1, s2)
            r1 = biframe.optimal_bounds(s1)
            r2 = biframe.optimal_bounds(s2)
            rc = biframe.optimal_bounds(ts.combined)
            assert rc.valid
            # products of the factor optima bracket the combined optima
            assert rc.lower_opt >= r1.lower_opt * r2.lower_opt * (1 - 1e-8)
            assert rc.upper_opt <= r1.upper_opt * r2.upper_opt * (1 + 1e-8)
            assert tensor.factor_bounds_check(ts)


class TestFactorBoundsCheck:
    def test_valid_factors_pass(self):
        ts = tensor.tensor_system(fixture("example-5-3-left"),
                                  fixture("example-5-3-right"))
        assert tensor.factor_bounds_check(ts)

    def test_law_is_the_check_bounds_verdict(self):
        # the fixture pair satisfies the law; two skew factors break it
        rng = np.random.default_rng(3)
        pairs = [(fixture("example-5-3-left"), fixture("example-5-3-right")),
                 (random_valid_system(rng, 2, asym=0.9), random_valid_system(rng, 2, asym=0.9))]
        verdicts = []
        for s1, s2 in pairs:
            ts = tensor.tensor_system(s1, s2)
            r1, r2, rc = (biframe.optimal_bounds(s) for s in (s1, s2, ts.combined))
            claim = (r1.lower_opt * r2.lower_opt, r1.upper_opt * r2.upper_opt)
            verdicts.append(tensor.product_law(r1, r2, rc))
            assert verdicts[-1] is biframe.check_bounds(ts.combined, *claim).ok
        assert verdicts == [True, False]

    def test_invalid_factor_breaks_combined_first(self):
        # an invalid factor always poisons the product, so the combined
        # check trips before the per-factor ones
        ts = tensor.tensor_system(fixture("example-3-4"), fixture("example-3-3"))
        with pytest.raises(errors.NotABiframeError, match="combined"):
            tensor.factor_bounds_check(ts)

    def test_invalid_factor_is_named_when_combined_passes(self):
        valid = fixture("example-3-3")
        mixed = tensor.TensorSystem(left=fixture("example-3-4"), right=valid,
                                    combined=tensor.tensor_system(valid, valid).combined)
        with pytest.raises(errors.NotABiframeError, match="left factor"):
            tensor.factor_bounds_check(mixed)


def _pair(rng, dim: int, nodes: int, complex_: bool, scale: int = 0):
    """Two valid ``dim``-dimensional factors on ``nodes`` nodes each, with
    skew parts; the left one's weights times ``2^scale``, the right one's
    times ``2^-scale``."""
    pair = []
    for j in (scale, -scale):
        s = random_valid_system(rng, dim, complex_=complex_, nodes=nodes, asym=0.3)
        measure = bk.DiscreteMeasure(s.measure.ids, np.ldexp(s.measure.weights, j))
        pair.append(bk.BiframeSystem(measure, s.analysis, s.synthesis, s.target))
    return pair


def _node_sum(s1, s2) -> np.ndarray:
    """``sum w G F*`` over the product nodes, on ``numpy.kron`` samples."""
    w = np.kron(s1.measure.weights, s2.measure.weights)
    f, g = (np.kron(getattr(s1, x).samples, getattr(s2, x).samples)
            for x in ("analysis", "synthesis"))
    return g.T @ (w[:, None] * np.conj(f))


class TestFactorFormedSystem:
    @pytest.mark.parametrize("scale", [0, 600, -600])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_s_is_the_node_sum_over_the_product(self, complex_, scale):
        s1, s2 = _pair(np.random.default_rng([4, complex_, abs(scale)]), 3, 5, complex_, scale)
        got = biframe.frame_operator(tensor.tensor_system(s1, s2).combined)
        assert linalg.relative_gap(_node_sum(s1, s2), got) <= 1e-12

    def test_s_fits_where_a_factors_does_not(self):
        # S1 = 2^1030 I is no float64, S2 = 2^-200 I; S1 (x) S2 = 2^830 I is
        m = bk.DiscreteMeasure(("a", "b"), np.ones(2))
        s1, s2 = (bk.BiframeSystem.from_samples(m, 2.0 ** j * np.eye(2), 2.0 ** j * np.eye(2),
                                                np.eye(2)) for j in (515, -100))
        with pytest.raises(OverflowError, match="frame operator's sums"):
            biframe.frame_operator(s1)
        combined = tensor.tensor_system(s1, s2).combined
        assert np.array_equal(biframe.frame_operator(combined), 2.0 ** 830 * np.eye(4))
        report = biframe.optimal_bounds(combined)
        assert (report.lower_opt, report.upper_opt) == (2.0 ** 830, 2.0 ** 830)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_samples_once_read_are_numpys_kron_bit_for_bit(self, complex_):
        s1, s2 = _pair(np.random.default_rng(9), 3, 4, complex_)
        combined = tensor.tensor_system(s1, s2).combined
        for name in ("analysis", "synthesis"):
            field = getattr(combined, name)
            want = np.kron(getattr(s1, name).samples, getattr(s2, name).samples)
            first, second = field.samples, field.samples
            assert first.tobytes() == want.tobytes() and first.dtype == want.dtype
            assert not first.flags.writeable
            assert second is not first and np.array_equal(second, first)  # formed, not kept
            assert (field.nodes, field.dim, field.is_complex) == (*want.shape, complex_)
        assert combined.target.tobytes() == np.kron(s1.target, s2.target).tobytes()

    def test_with_target_shares_s_and_swap_sums_its_own(self):
        s1, s2 = _pair(np.random.default_rng(10), 3, 4, True)
        combined = tensor.tensor_system(s1, s2).combined
        retargeted = combined.with_target(np.eye(9, dtype=complex))
        s = biframe.frame_operator(retargeted)  # formed on the retargeted system first
        assert biframe.frame_operator(combined) is s
        swapped = biframe.swap(combined)
        s_star = biframe.frame_operator(swapped)
        assert s_star is not s and linalg.relative_gap(s_star, s.conj().T) <= 1e-12
        assert np.array_equal(s_star, biframe.frame_operator(bk.BiframeSystem.from_samples(
            combined.measure, combined.synthesis.samples, combined.analysis.samples,
            combined.target)))


def _counted(call) -> list[str]:
    """Names of the spans the bench's tracer records while ``call`` runs,
    with three more: every Kronecker product, every node sum of ``S`` and
    every read of a combined system's samples."""
    extra = ((np, "kron", "numpy.kron"), (biframe, "_unit_frame", "node sum"),
             (tensor._ProductField, "samples", "combined samples"))
    return [span[0] for span in traced_spans(call, extra)]


def test_the_bench_pair_forms_products_only_for_what_is_read():
    # the bench's 8x8 pair, 24 nodes a factor: tensor_system forms the
    # weights and the target, and no sample product and no node sum; the
    # law reads S1 (x) S2, one product of the factors' two node sums
    s1, s2 = _pair(np.random.default_rng(11), 8, 24, False)
    holder = {}
    names = _counted(lambda: holder.setdefault("ts", tensor.tensor_system(s1, s2)))
    assert names.count("numpy.kron") == 2
    assert names.count("node sum") == names.count("combined samples") == 0
    assert names.count("biframe.frame_operator") == 0

    names = _counted(lambda: tensor.factor_bounds_check(holder["ts"]))
    assert names.count("combined samples") == 0
    assert names.count("node sum") == 2
    assert names.count("numpy.kron") == 1
