"""Acceptance gate: twelve end-to-end checks over the whole toolkit.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to see
them all) and hard-asserts its claim, except where a stated-but-uncertified
construction rule is explicitly rate-logged instead.  Seeds are fixed so
every run exercises the same draws.
"""

import dataclasses

import numpy as np
import pytest

import biframekit as bk
from biframekit import linalg, opcalc, quotient, tensor
from biframekit.biframe import (
    BiframeSystem,
    biframe_form,
    frame_operator,
    gram_target,
    optimal_bounds,
    verify_bounds,
)
from biframekit.app.fixtures import fixture
from biframekit.measure import DiscreteMeasure
from helpers import random_matrix, random_system, random_target, random_valid_system


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _conditioned(rng: np.random.Generator, n: int, complex_: bool = False,
                 lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Invertible matrix with singular values in [lo, hi]."""
    q1, _ = np.linalg.qr(random_matrix(rng, n, n, complex_))
    q2, _ = np.linalg.qr(random_matrix(rng, n, n, complex_))
    return q1 @ np.diag(rng.uniform(lo, hi, n)) @ q2


def _rotated_diag(rng: np.random.Generator, eigs: np.ndarray,
                  complex_: bool) -> np.ndarray:
    """Hermitian matrix with the given spectrum in a random eigenbasis."""
    q, _ = np.linalg.qr(random_matrix(rng, len(eigs), len(eigs), complex_))
    return q @ np.diag(eigs).astype(q.dtype) @ linalg.adjoint(q)


def _planted_form_system(rng: np.random.Generator, herm: np.ndarray,
                         complex_: bool, target: np.ndarray) -> BiframeSystem:
    """System whose frame operator has Hermitian part exactly ``herm`` plus a
    small anti-Hermitian part for texture."""
    dim = herm.shape[0]
    a = random_matrix(rng, dim, dim, complex_)
    skew = 0.1 * linalg.spectral_norm(herm) * (a - linalg.adjoint(a)) / 2.0
    s = herm + skew
    measure = DiscreteMeasure(tuple(f"n{i}" for i in range(dim)), np.ones(dim))
    eye = np.eye(dim, dtype=s.dtype)
    # with unit weights and identity synthesis family, the frame operator
    # equals conj(analysis samples)
    return BiframeSystem.from_samples(measure, np.conj(s), eye, target.astype(s.dtype))


def test_criterion_01_promoted_diagonal_optimal_bounds():
    report = optimal_bounds(fixture("example-3-11"))
    ok = (report.valid
          and abs(report.lower_opt - 1.25) <= 1e-9
          and abs(report.upper_opt - 11.0) <= 1e-9)
    _report(1, ok, f"optimal bounds ({report.lower_opt:.12g}, "
                   f"{report.upper_opt:.12g}); want (1.25, 11) at 1e-9")


def test_criterion_02_partition_swap_claim_and_optimum():
    sys_ = fixture("example-3-3")
    claimed = verify_bounds(sys_, 2.0, 5.0)
    report = optimal_bounds(sys_)
    ok = (claimed
          and abs(report.lower_opt - 2.0) <= 1e-9
          and abs(report.upper_opt - 4.0) <= 1e-9)
    _report(2, ok, f"claim (2, 5) verified={claimed}; optimal "
                   f"({report.lower_opt:.12g}, {report.upper_opt:.12g}); want (2, 4)")


def test_criterion_03_quadrature_refutation_and_coefficients():
    sys_ = fixture("example-3-4")
    report = optimal_bounds(sys_)
    w = report.witness_negative_form
    direction = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    unit = abs(np.linalg.norm(w) - 1.0) <= 1e-9
    aligned = abs(abs(np.vdot(direction, w)) - 1.0) <= 1e-9
    # the quoted value -1/3 is attained at the integer representative of the
    # witness ray, i.e. the witness rescaled so its largest entry is 1
    value = biframe_form(sys_, w / np.max(np.abs(w)))

    want = np.array([1.0, 1.0, 1.0, 7.0 / 3.0, 2.0, 2.0])
    coeffs_ok = True
    for n in (2, 3, 8, 20):
        s = frame_operator(fixture("example-3-4", quad_nodes=n))
        coeffs = np.array([s[0, 0], s[1, 1], s[2, 2],
                           s[0, 1] + s[1, 0], s[0, 2] + s[2, 0], s[1, 2] + s[2, 1]])
        coeffs_ok = coeffs_ok and bool(np.max(np.abs(coeffs - want)) <= 1e-12)

    ok = (not report.valid) and unit and aligned and value <= -1.0 / 3.0 + 1e-9 and coeffs_ok
    _report(3, ok, f"invalid={not report.valid}, witness along (1,-1,0)={aligned}, "
                   f"form={value:.12g} (want <= -1/3), "
                   f"form coefficients match for n>=2: {coeffs_ok}")


def test_criterion_04_truncation_bounds():
    sys_ = fixture("example-3-5")
    claimed = verify_bounds(sys_, 1.0, 2.0)
    report = optimal_bounds(sys_)
    ok = (claimed
          and abs(report.lower_opt - 1.0) <= 1e-9
          and abs(report.upper_opt - 2.0) <= 1e-9)
    _report(4, ok, f"claim (1, 2) verified={claimed}; optimal "
                   f"({report.lower_opt:.12g}, {report.upper_opt:.12g})")


def test_criterion_05_tensor_combination():
    ts = tensor.tensor_system(fixture("example-5-3-left"), fixture("example-5-3-right"))
    claimed = verify_bounds(ts.combined, 1.0, 6.0)
    s_comb = frame_operator(ts.combined)
    gap = float(np.linalg.norm(
        s_comb - tensor.kron(frame_operator(ts.left), frame_operator(ts.right))))
    rel = gap / float(np.linalg.norm(s_comb))
    ok = claimed and rel <= 1e-10
    _report(5, ok, f"combined claim (1, 6) verified={claimed}; "
                   f"frame-operator factorization gap {rel:.3g} (want <= 1e-10)")


def test_criterion_06_frame_operator_covariance():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for trial in range(100):
        complex_ = trial % 2 == 1
        dim = int(rng.integers(1, 7))
        nodes = int(rng.integers(1, 25))
        sys_ = random_system(rng, dim, complex_=complex_, nodes=nodes)
        k = random_matrix(rng, dim, dim, complex_)
        s = frame_operator(sys_)
        pushed = opcalc.apply_operator(sys_, k).system
        # both families map through k (samples @ k.T), so the frame operator
        # must transform by conjugation
        gap = float(np.linalg.norm(frame_operator(pushed) - k @ s @ linalg.adjoint(k)))
        bound = 1e-10 * linalg.spectral_norm(k) ** 2 * float(np.linalg.norm(s))
        worst = max(worst, gap / bound if bound else float(gap > 0))
    ok = worst <= 1.0
    _report(6, ok, f"conjugation covariance on 100 systems; worst gap at "
                   f"{worst:.3g} of the 1e-10*|K|^2*|S| budget")


def test_criterion_07_pencil_verdict_matches_brute_force():
    rng = np.random.default_rng(1007)
    n_samples = 10_000
    mismatches = 0
    bound_breaks = 0
    for trial in range(200):
        complex_ = trial % 2 == 1
        dim = int(rng.integers(2, 5))
        if trial % 2 == 0:
            sys_ = random_valid_system(rng, dim, complex_=complex_,
                                       target=_conditioned(rng, dim, complex_))
        else:
            eigs = rng.uniform(0.5, 2.0, dim)
            eigs[0] = -0.4 * float(np.max(eigs))
            herm = _rotated_diag(rng, eigs, complex_)
            sys_ = _planted_form_system(rng, herm, complex_,
                                        _conditioned(rng, dim, complex_))
        report = optimal_bounds(sys_)
        s = frame_operator(sys_)
        margin = 1e-6 * max(1.0, float(np.linalg.norm(s)))

        x = random_matrix(rng, n_samples, dim, complex_)
        x /= np.linalg.norm(x, axis=1)[:, None]
        vals = np.einsum("ij,ij->i", np.conj(x), x @ s.T).real
        ktn = np.sum(np.abs(x @ np.conj(sys_.target)) ** 2, axis=1)

        # every finite sampled system is Bessel; the sweep must respect the
        # reported upper constant, and the lower one whenever validity holds
        if np.any(vals > report.upper_opt + margin):
            bound_breaks += 1
        if report.valid and np.any(vals < report.lower_opt * ktn - margin):
            bound_breaks += 1
        brute_valid = not np.any(vals < -margin)
        if brute_valid != report.valid:
            mismatches += 1
    ok = mismatches == 0 and bound_breaks == 0
    _report(7, ok, f"200 systems x {n_samples} unit vectors: "
                   f"{mismatches} verdict mismatches, {bound_breaks} bound "
                   f"counterexamples beyond 1e-6 margins")


def test_criterion_08_pencil_vs_quotient_agreement():
    rng = np.random.default_rng(1008)
    indeterminate = 0
    for trial in range(200):
        complex_ = trial % 2 == 1
        dim = int(rng.integers(2, 6))
        kind = trial % 4
        if kind in (0, 1):
            sys_ = random_valid_system(rng, dim, complex_=complex_)
        else:
            eigs = np.concatenate([rng.uniform(0.5, 2.0, dim - 1), [0.0]])
            rng.shuffle(eigs)
            herm = _rotated_diag(rng, eigs, complex_)
            if kind == 2:
                # invertible target: the planted kernel direction survives
                # into the quotient, so both routes must call this invalid
                target = _conditioned(rng, dim, complex_)
            else:
                # target is the PSD root of the planted Hermitian part, so
                # the form's kernel matches range(K) and both routes agree
                # on validity
                target = linalg.sqrt_psd(linalg.hermitian_eigen(herm))
            sys_ = _planted_form_system(rng, herm, complex_, target)
        out = quotient.validity_cross_check(sys_)
        indeterminate += out.indeterminate
    ok = indeterminate < 0.02 * 200
    _report(8, ok, f"200 PSD systems: pencil and quotient verdicts split on "
                   f"{indeterminate} (< 4 allowed)")


def test_criterion_09_transfer_ratio_characterizes_validity():
    rng = np.random.default_rng(1009)
    failures = 0
    positives = 0
    for trial in range(100):
        complex_ = trial % 2 == 1
        dim = int(rng.integers(2, 6))
        rank = dim if trial % 3 else max(1, dim - 1)
        if rank == dim:
            k = _conditioned(rng, dim, complex_)
        else:
            q1, _ = np.linalg.qr(random_matrix(rng, dim, dim, complex_))
            q2, _ = np.linalg.qr(random_matrix(rng, dim, dim, complex_))
            sing = np.concatenate([rng.uniform(0.5, 2.0, rank), np.zeros(dim - rank)])
            k = q1 @ np.diag(sing).astype(q1.dtype) @ q2
        sys_ = random_valid_system(rng, dim, complex_=complex_, target=k)

        if trial % 2 == 0:
            m = _conditioned(rng, dim, complex_)  # range(KM) = range(K)
        else:
            basis, _ = linalg.orthonormal_range(linalg.adjoint(k))
            v = basis @ random_matrix(rng, basis.shape[1], 1, complex_)[:, 0]
            v = linalg.unit_vector(v)
            m = (np.eye(dim, dtype=k.dtype) - np.outer(v, np.conj(v))) \
                @ _conditioned(rng, dim, complex_)
        u = k @ m

        delta = opcalc.max_transfer_ratio(sys_, u)
        moved = BiframeSystem.from_samples(
            sys_.measure,
            sys_.analysis.samples @ u.T,
            sys_.synthesis.samples @ u.T,
            k,
        )
        still_valid = optimal_bounds(moved).valid
        positives += delta > 0
        if (delta > 0) != bool(still_valid):
            failures += 1
    ok = failures == 0 and 0 < positives < 100
    _report(9, ok, f"100 trials with range(U) in range(K): {failures} "
                   f"equivalence failures ({positives} with positive ratio)")


def test_criterion_10_kronecker_laws():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for trial in range(100):
        complex_ = trial % 2 == 1
        m, n, p = (int(rng.integers(1, 5)) for _ in range(3))
        q, r, s = (int(rng.integers(1, 5)) for _ in range(3))
        a = random_matrix(rng, m, n, complex_)
        b = random_matrix(rng, q, r, complex_)
        c = random_matrix(rng, n, p, complex_)
        d = random_matrix(rng, r, s, complex_)

        norm_gap = abs(linalg.spectral_norm(tensor.kron(a, b))
                       - linalg.spectral_norm(a) * linalg.spectral_norm(b))
        norm_gap /= max(1.0, linalg.spectral_norm(a) * linalg.spectral_norm(b))

        mixed = tensor.kron(a, b) @ tensor.kron(c, d) - tensor.kron(a @ c, b @ d)
        mixed_gap = float(np.linalg.norm(mixed)) / max(
            1.0, float(np.linalg.norm(a @ c)) * float(np.linalg.norm(b @ d)))

        adj = linalg.adjoint(tensor.kron(a, b)) \
            - tensor.kron(linalg.adjoint(a), linalg.adjoint(b))
        adj_gap = float(np.linalg.norm(adj))

        ai = _conditioned(rng, int(rng.integers(1, 5)), complex_)
        bi = _conditioned(rng, int(rng.integers(1, 5)), complex_)
        inv = np.linalg.inv(tensor.kron(ai, bi)) \
            - tensor.kron(np.linalg.inv(ai), np.linalg.inv(bi))
        inv_gap = float(np.linalg.norm(inv))

        worst = max(worst, norm_gap, mixed_gap, adj_gap, inv_gap)
    ok = worst <= 1e-10
    _report(10, ok, f"norm/mixed-product/adjoint/inverse laws on 100 pairs; "
                    f"worst residual {worst:.3g} (want <= 1e-10)")


def test_criterion_11_pseudo_inverse_axioms():
    rng = np.random.default_rng(1011)
    worst = 0.0
    for trial in range(100):
        complex_ = trial % 2 == 1
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(m, n)))
        u = random_matrix(rng, m, rank, complex_) @ random_matrix(rng, rank, n, complex_)
        plus = linalg.pseudo_inverse(u)
        u_norm = linalg.spectral_norm(u)
        p_norm = linalg.spectral_norm(plus)

        gaps = [
            float(np.linalg.norm(u @ plus @ u - u)) / u_norm,
            float(np.linalg.norm(plus @ u @ plus - plus)) / p_norm,
            float(np.linalg.norm(linalg.adjoint(u @ plus) - u @ plus)),
            float(np.linalg.norm(linalg.adjoint(plus @ u) - plus @ u)),
        ]
        x = u @ random_matrix(rng, n, 1, complex_)[:, 0]
        if np.linalg.norm(x) > 1e-8 * u_norm:
            gaps.append(float(np.linalg.norm(u @ (plus @ x) - x))
                        / float(np.linalg.norm(x)))
        worst = max(worst, *gaps)
    ok = worst <= 1e-9
    _report(11, ok, f"Moore-Penrose axioms + range reproduction on 100 "
                    f"rank-deficient operators; worst residual {worst:.3g}")


def _dominates(result: opcalc.ConstructionResult, tol: float = 1e-8,
               after: bk.BoundsReport | None = None) -> tuple[bool, str]:
    """Whether the optimal bounds of ``result.system`` (``after``, computed
    here unless given) honour the result's guaranteed pair."""
    if after is None:
        after = optimal_bounds(result.system)
    slack = tol * max(1.0, abs(result.guaranteed_upper))
    lower_ok = (result.guaranteed_lower is None
                or (after.valid and after.lower_opt >= result.guaranteed_lower - slack))
    upper_ok = after.upper_opt <= result.guaranteed_upper + slack
    if lower_ok and upper_ok:
        return True, ""
    return False, (f"{result.rule}: optimal ({after.lower_opt}, {after.upper_opt}) "
                   f"vs guaranteed ({result.guaranteed_lower}, {result.guaranteed_upper})")


def test_criterion_12_construction_dominance():
    rng = np.random.default_rng(1012)
    failures: list[str] = []
    sum2_bad = 0
    sumn_bad = 0
    perturb_bad = 0
    for trial in range(100):
        complex_ = trial % 2 == 1
        dim = int(rng.integers(1, 6))
        asym = 0.3 if trial % 3 == 0 else 0.0
        plain = random_valid_system(rng, dim, complex_=complex_,
                                    target=np.eye(dim), asym=asym)
        rank = dim if trial % 4 else max(1, dim - 1)
        general = random_valid_system(rng, dim, complex_=complex_,
                                      target=random_target(rng, dim, complex_, rank),
                                      asym=asym)
        k = general.target

        poly = (rng.uniform(-0.5, 0.5) * np.eye(dim, dtype=k.dtype)
                + rng.uniform(-0.5, 0.5) * k
                + rng.uniform(-0.5, 0.5) * (k @ k))
        commuting = poly + (1.0 + linalg.spectral_norm(poly)) * np.eye(dim, dtype=k.dtype)
        half = random_matrix(rng, dim, dim, complex_)
        bump = half @ linalg.adjoint(half)
        bump *= rng.uniform(0.2, 2.0) / max(1.0, linalg.spectral_norm(bump))

        hard = [
            opcalc.promote(plain, random_target(rng, dim, complex_)),
            opcalc.restrict_to_range(general),
            opcalc.combine_product(general, random_target(rng, dim, complex_)),
            opcalc.apply_operator(general, random_matrix(rng, dim, dim, complex_)),
            opcalc.canonical_dual(plain, random_target(rng, dim, complex_)),
            opcalc.sandwich(general, random_matrix(rng, dim, dim, complex_)),
            opcalc.inverse_conjugate(general, _conditioned(rng, dim, complex_)),
            opcalc.commuting_transform(general, commuting),
        ]
        for result in hard:
            good, why = _dominates(result)
            if result.certified is not True:
                good, why = False, f"{result.rule}: reported certified={result.certified}"
            if not good:
                failures.append(f"trial {trial}: {why}")

        # perturb keeps the input's optimal lower bound A as its stated (and
        # uncertified) lower constant.  The provable one is A * delta^2 with
        # B = I + T^p and delta^2 the largest shift keeping B KK* B* >= delta^2 KK*:
        # form'(f) = form(B* f) >= A ||K* B* f||^2 >= A delta^2 ||K* f||^2.
        # The upper constant B_in ||B||^2 is sound as stated.
        power = int(rng.integers(1, 4))
        perturbed = opcalc.perturb_positive(general, bump, power=power)
        after = optimal_bounds(perturbed.system)
        stated_ok, _ = _dominates(perturbed, after=after)
        perturb_bad += not stated_ok
        grow = np.eye(dim, dtype=bump.dtype) + np.linalg.matrix_power(bump, power)
        gram = gram_target(general)
        shift = linalg.max_psd_shift(
            linalg.hermitian_eigen(grow @ gram @ linalg.adjoint(grow)), general.target)
        provable = (None if shift.amount is None
                    else perturbed.guaranteed_lower * shift.amount)
        good, why = _dominates(dataclasses.replace(perturbed, guaranteed_lower=provable),
                               after=after)
        if perturbed.certified is not False:
            good, why = False, f"perturb: reported certified={perturbed.certified}"
        if not good:
            failures.append(f"trial {trial}: {why}")

        terms2 = [(rng.uniform(0.3, 2.0), random_target(rng, dim, complex_))
                  for _ in range(2)]
        good, _ = _dominates(opcalc.combine_sum(general, terms2))
        sum2_bad += not good
        termsn = [(rng.uniform(0.3, 2.0), random_target(rng, dim, complex_))
                  for _ in range(int(rng.integers(3, 6)))]
        good, _ = _dominates(opcalc.combine_sum(general, termsn))
        sumn_bad += not good

    print(f"criterion 12 note: stated perturb lower constant A violated dominance "
          f"in {perturb_bad}/100 trials, stated 2-term sum rule in {sum2_bad}/100, "
          f"n-term in {sumn_bad}/100 (rate-logged, not asserted)")
    detail = (f"8 certified rules x 100 valid inputs, plus perturb's upper constant, "
              f"provable lower constant A*delta^2 and certified=False: "
              f"{len(failures)} failures")
    if failures:
        detail += f"; first: {failures[0]}"
    _report(12, not failures, detail)
