"""The three benchmark workloads.

Each workload turns ``--seed`` into a stream of *cycles*.  A cycle is a fixed
list of operations with a fixed size and kind mix; only the random contents
change from cycle to cycle (``numpy.random.default_rng([seed, cycle, salt])``).
Whole cycles are timed, so every run sees exactly the same mix and the
latency percentiles always land in the same size group.

An operation (:class:`Op`) is one user-visible request: ``run`` is the timed
call into the library (or one CLI process), ``check`` compares its outcome
with the oracle and returns ``None`` or a one-line failure.  Checks run after
the cycle, outside the timed region.

The program only ever sees the generated inputs; every expectation comes from
:mod:`oracle`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

from biframekit import biframe, errors, measure, opcalc, quotient, tensor
from biframekit.app import cli, fixtures, manifest


@dataclass
class Op:
    label: str
    group: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]


@dataclass
class Counters:
    """Per-cycle findings that are reported, not failed."""

    dominance_violations: int = 0
    indeterminate: int = 0


def expect_value(fn: Callable[[object], str | None]):
    """Wrap a check of a returned value: any exception is a failure."""

    def check(value, error):
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        return fn(value)

    return check


# ---------------------------------------------------------------- inputs


def gaussian(rng, shape, complex_: bool) -> np.ndarray:
    m = rng.standard_normal(shape)
    if complex_:
        m = m + 1j * rng.standard_normal(shape)
    return m


def near_identity(rng, dim: int, complex_: bool, spread: float) -> np.ndarray:
    """Dense, well-conditioned operator ``I + spread * R / sqrt(dim)``."""
    return np.eye(dim) + spread * gaussian(rng, (dim, dim), complex_) / np.sqrt(dim)


def make_target(rng, kind: str, dim: int, complex_: bool) -> np.ndarray:
    if kind == "identity":
        return np.eye(dim, dtype=complex if complex_ else float)
    if kind == "dense":
        return near_identity(rng, dim, complex_, 0.5)
    # rank-deficient: half the rank, singular values in [0.5, 2] on the range
    rank = max(1, dim // 2)
    left, _ = np.linalg.qr(gaussian(rng, (dim, rank), complex_))
    right, _ = np.linalg.qr(gaussian(rng, (dim, rank), complex_))
    return (left * rng.uniform(0.5, 2.0, rank)) @ oracle.adjoint(right)


def make_families(rng, nodes: int, dim: int, complex_: bool, valid: bool):
    """Dense sample families ``F``, ``G`` and weights ``w``.

    Valid: ``G = F + X`` with ``X`` chosen so that the frame operator is
    ``S = A + C``, where ``A = F^T W conj(F)`` is the (positive definite)
    Gram form and ``C`` is skew-Hermitian with ``||C|| = 0.3 ||A||``.  The
    system is clearly non-self-adjoint while its Hermitian part is exactly
    ``A``.  Invalid: ``G`` is ``F`` with its last coordinate negated, plus
    noise, so the form goes clearly negative.  Draws within 2% of the
    boundary are redrawn, so the expected verdict is never a rounding question.
    """
    flip = np.ones(dim)
    flip[-1] = -1.0
    while True:
        f = gaussian(rng, (nodes, dim), complex_)
        w = rng.uniform(0.5, 2.0, nodes)
        if valid:
            gram_form = oracle.frame_op(f, f, w)
            r = gaussian(rng, (dim, dim), complex_)
            skew = (r - oracle.adjoint(r)) / 2.0
            c = 0.3 * oracle.norm2(gram_form) / oracle.norm2(skew) * skew
            # X^T W conj(F) = C for X = F A^-T C^T
            g = f + f @ np.linalg.solve(gram_form.T, c.T)
        else:
            g = f * flip + 0.1 * gaussian(rng, (nodes, dim), complex_)
        definite = oracle.definiteness(oracle.herm(oracle.frame_op(f, g, w)))
        if (definite >= 0.02) if valid else (definite <= -0.02):
            return f, g, w


def build(f, g, w, k) -> biframe.BiframeSystem:
    """The system, built through the library's constructors."""
    ids = tuple(f"n{i}" for i in range(len(w)))
    return biframe.BiframeSystem.from_samples(measure.DiscreteMeasure(ids, w), f, g, k)


@dataclass
class Truth:
    """Oracle view of one system: Hermitian part, ``KK*`` and optimal bounds."""

    h: np.ndarray
    p: np.ndarray
    lower: float | None
    upper: float

    @classmethod
    def of(cls, f, g, w, k) -> "Truth":
        h = oracle.herm(oracle.frame_op(f, g, w))
        p = oracle.gram(k)
        lower, upper = oracle.bounds(h, p)
        return cls(h, p, lower, upper)


# ---------------------------------------------------------- shared checks


def check_report(system, truth: Truth, rep) -> str | None:
    """An ``optimal_bounds`` report against the oracle."""
    if truth.lower is None:
        if rep.valid or rep.lower_opt is not None:
            return f"invalid system reported valid (lower {rep.lower_opt!r})"
        if not oracle.negative_form(system, rep.witness_negative_form, truth.h):
            return "invalid system without a negative-form witness"
        return None
    if not rep.valid or rep.lower_opt is None:
        return f"valid system reported invalid (oracle lower {truth.lower:.6g})"
    if not oracle.lower_bracket_ok(truth.h, truth.p, rep.lower_opt):
        return f"lower {rep.lower_opt!r} is not optimal (oracle {truth.lower!r})"
    if not oracle.close(rep.upper_opt, truth.upper):
        return f"upper {rep.upper_opt!r} != oracle {truth.upper!r}"
    if rep.witness_negative_form is not None:
        return "negative-form witness on a valid system"
    return None


def check_claim(system, truth: Truth, claim, ok: bool, witness) -> str | None:
    """A verdict on a claimed pair, and its witness when refuted."""
    holds = oracle.claim_holds(truth.h, truth.p, *claim)
    if ok != holds:
        said = "verified" if ok else "refuted"
        return f"claim {claim} {said}; oracle says it {'holds' if holds else 'fails'}"
    if not holds and not oracle.refutes(system, witness, *claim, truth.h, truth.p):
        return f"witness does not refute claim {claim}"
    return None


# A claim must have ``0 < lower <= upper``.  A target with ``||K|| < 1`` can
# put the optimal lower constant above the upper one; the side of the claim
# that is meant to hold then gives way to keep the pair well formed.


def true_claim(truth: Truth) -> tuple[float, float]:
    """A pair that holds, with 10% slack on each side."""
    upper = 1.1 * truth.upper
    return min(0.9 * truth.lower, upper), upper


def overclaim(truth: Truth, slot: int) -> tuple[float, float]:
    """A false claim: the lower constant 10% too high, or the upper 10% too low.
    An invalid system has no true lower constant, so any positive one fails."""
    if truth.lower is None:
        return 0.1 * truth.upper / oracle.norm2(truth.p), 1.1 * truth.upper
    if slot % 2 == 0:
        lower = 1.1 * truth.lower
        return lower, max(1.1 * truth.upper, lower)
    upper = 0.9 * truth.upper
    return min(0.9 * truth.lower, upper), upper


# ---------------------------------------------------------- analyze-fresh


class AnalyzeFresh:
    """Fresh dense random systems, each queried exactly once.

    One cycle is 53 queries with a fixed mix, weighted toward small systems
    (see ``MIX``).  It is laid out so that each percentile falls well inside
    one group of similar cost.  By rank, the dim-4 checks take 0-21%.  The
    dim-4 ``optimal_bounds`` calls and the dim-8 checks, both 5-12 ms, take
    21-58%, which holds p50.  The dim-32 checks take 77-94%, which holds p90.

    A check is ``check_bounds`` on a true pair or on a false one,
    alternately.  Across the cycle's slots the field alternates between real
    and complex, and the target rotates through identity, dense and
    rank-deficient.  One slot in seven is an indefinite (invalid) system.
    One dim-4 or dim-8 slot in five has its weights scaled by ``10^k``, with
    ``k`` in ``SCALE_EXPONENTS``.

    Smaller weights (``DEFECT_EXPONENTS``) meet a known defect of the
    program: its tolerance ``tol * max(1, norm)`` turns into an absolute
    cutoff of 1e-9 once the matrices have norm below 1, so valid systems are
    reported invalid and false claims verified.  Those systems are not in the
    timed cycle, whose every op must come out right; :meth:`known_defects`
    builds them for an untimed probe whose wrong verdicts are counted and
    printed beside the result.
    """

    name = "analyze-fresh"
    MIX = ((4, "check", 11), (4, "bounds", 4), (8, "check", 16), (8, "bounds", 4),
           (16, "check", 3), (16, "bounds", 3), (32, "check", 9), (32, "bounds", 1),
           (64, "check", 1), (64, "bounds", 1))
    TARGETS = ("identity", "dense", "rank-deficient")
    SCALE_EXPONENTS = (-6, -3, 3, 6, 9, 12)
    DEFECT_EXPONENTS = (-12, -9)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.counters = Counters()

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        """Pay first-call costs (LAPACK dispatch, lazy imports) before timing."""
        rng = np.random.default_rng([self.seed, 0, 101])
        for j, query in enumerate(("bounds", "check", "check")):
            self._slot(rng, 4, query, j, j).run()

    def prepare(self, cycle: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, cycle, 1])
        slots = [(dim, query, i) for dim, query, count in self.MIX for i in range(count)]
        ops = [self._slot(rng, dim, query, i, j) for j, (dim, query, i) in enumerate(slots)]
        return [ops[j] for j in rng.permutation(len(ops))]

    def known_defects(self, cycle: int) -> list[Op]:
        """Dim-4 and dim-8 queries on systems with weights scaled by each of
        ``DEFECT_EXPONENTS``, fresh for each cycle."""
        rng = np.random.default_rng([self.seed, cycle, 4])
        slots = [(dim, query, i, exponent) for exponent in self.DEFECT_EXPONENTS
                 for dim in (4, 8) for query, i in (("bounds", 0), ("check", 0), ("check", 1))]
        return [self._slot(rng, dim, query, i, j, exponent)
                for j, (dim, query, i, exponent) in enumerate(slots)]

    def _slot(self, rng, dim: int, query: str, i: int, j: int,
              exponent: int | None = None) -> Op:
        """Op ``i`` of its (dim, query) group, slot ``j`` of the cycle; the
        weights are scaled by ``10^exponent`` if given, else by the slot rule."""
        complex_ = j % 2 == 1
        kind = self.TARGETS[j % 3]
        valid = j % 7 != 3
        f, g, w = make_families(rng, 3 * dim, dim, complex_, valid)
        k = make_target(rng, kind, dim, complex_)
        if query == "check":
            query = "check-true" if i % 2 == 0 else "check-false"
        label = f"{query} d{dim} {'complex' if complex_ else 'real'} {kind}"
        if not valid:
            label += " indefinite"
        if exponent is None and dim <= 8 and j % 5 == 2:
            exponent = int(rng.choice(self.SCALE_EXPONENTS))
        if exponent is not None:
            w = w * 10.0**exponent
            label += f" weights*1e{exponent}"
        system = build(f, g, w, k)
        truth = Truth.of(f, g, w, k)

        if query == "bounds":
            return Op(label, f"d{dim}", lambda: biframe.optimal_bounds(system),
                      expect_value(lambda rep: check_report(system, truth, rep)))
        if query == "check-true" and truth.lower is not None:
            claim = true_claim(truth)
        else:
            claim = overclaim(truth, i // 2)
        return Op(label, f"d{dim}", lambda: biframe.check_bounds(system, *claim),
                  expect_value(lambda v: check_claim(system, truth, claim, v.ok, v.witness)))


# -------------------------------------------------------- certify-derived


class CertifyDerived:
    """Every construction rule and check applied to one base system per round.

    A cycle is two rounds, each on a fresh dense dim-12 base system with an
    identity target (one real, one complex), then one tensor step:
    ``tensor_system`` and ``factor_bounds_check`` on two dense real 8-dim
    factors (combined dim 64).  Each construction op is the rule call plus
    the ``optimal_bounds`` recomputation that certifies it.

    Every op but the tensor step works on a dim-12 system, so p50 and p90
    both fall in that size group (ranks 0-97%); the dim-64 tensor check is
    the slowest 3%.  A single base dim keeps the latency curve smooth: with
    dims 8, 12 and 16 mixed, the cheaper rules of one size and the dearer
    rules of the next leave steps in it that a percentile can sit on.
    """

    name = "certify-derived"
    ROUNDS = ((12, False), (12, True))
    UNCERTIFIED = {"sum", "product-chain", "perturb"}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.counters = Counters()

    def prepare(self, cycle: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, cycle, 2])
        ops: list[Op] = []
        for dim, complex_ in self.ROUNDS:
            ops += self._round(rng, dim, complex_)
        return ops + self._tensor_ops(rng, 8, False)

    def known_defects(self, cycle: int) -> list[Op]:
        return []

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        rng = np.random.default_rng([self.seed, 0, 102])
        for op in self._round(rng, 4, False) + self._tensor_ops(rng, 2, False):
            try:
                op.run()
            except errors.BiframeError:  # tight-scaling raises by design
                pass

    def _round(self, rng, dim: int, complex_: bool) -> list[Op]:
        f, g, w = make_families(rng, 4 * dim, dim, complex_, valid=True)
        eye = np.eye(dim, dtype=complex if complex_ else float)
        base = build(f, g, w, eye)
        t0 = Truth.of(f, g, w, eye)
        a, b = t0.lower, t0.upper
        u = near_identity(rng, dim, complex_, 0.3)
        k2 = near_identity(rng, dim, complex_, 0.5)
        ka = near_identity(rng, dim, complex_, 0.5)
        kb = near_identity(rng, dim, complex_, 0.5)
        t_commute = near_identity(rng, dim, complex_, 0.3)
        q = gaussian(rng, (dim, dim), complex_)
        t_psd = 0.2 * (q @ oracle.adjoint(q)) / dim
        norm = oracle.norm2
        s = oracle.frame_op(f, g, w)
        s_inv = np.linalg.inv(s)
        a_a = oracle.lower_opt(t0.h, oracle.gram(ka))
        a_b = oracle.lower_opt(t0.h, oracle.gram(kb))
        bump = eye + t_psd
        tag = f"d{dim} {'complex' if complex_ else 'real'}"

        def construction(rule, call, f2, g2, k2_, lower, upper) -> Op:
            def run():
                result = call()
                return result, biframe.optimal_bounds(result.system)

            def check(value):
                result, after = value
                return self._check_construction(rule, result, after, w, f2, g2, k2_, lower, upper)

            return Op(f"{rule} {tag}", f"d{dim}", run, expect_value(check))

        ops = [
            construction("promote", lambda: opcalc.promote(base, k2),
                         f, g, k2, a / norm(k2) ** 2, b),
            construction("sum", lambda: opcalc.combine_sum(base, [(1.0, ka), (0.5, kb)]),
                         f, g, ka + 0.5 * kb, 1.0 / (1.0 / a_a + 1.0 / a_b), b),
            construction("product", lambda: opcalc.combine_product(base, k2),
                         f, g, k2, a / norm(k2) ** 2, b),
            construction("product-chain", lambda: opcalc.product_chain(base, [ka, kb]),
                         f, g, ka @ kb, min(a_a, a_b) / norm(ka) ** 2, b),
            construction("apply", lambda: opcalc.apply_operator(base, u),
                         f @ u.T, g @ u.T, u, a, b * norm(u) ** 2),
            construction("dual", lambda: opcalc.canonical_dual(base, k2),
                         f @ (k2 @ s_inv).T, g @ (k2 @ s_inv).T, k2,
                         a / norm(s) ** 2, b * norm(s_inv) ** 2 * norm(k2) ** 2),
            construction("sandwich", lambda: opcalc.sandwich(base, u),
                         f @ u.T, g @ u.T, u @ oracle.adjoint(u),
                         a / norm(u) ** 2, b * norm(u) ** 2),
            construction("inverse-conjugate", lambda: opcalc.inverse_conjugate(base, u),
                         f @ np.linalg.inv(u).T, g @ np.linalg.inv(u).T, eye,
                         a / norm(u) ** 2, b * norm(np.linalg.inv(u)) ** 2),
            construction("commute", lambda: opcalc.commuting_transform(base, t_commute),
                         f @ t_commute.T, g @ t_commute.T, eye,
                         a / norm(np.linalg.inv(t_commute)) ** 2, b * norm(t_commute) ** 2),
            construction("perturb", lambda: opcalc.perturb_positive(base, t_psd),
                         f @ bump.T, g @ bump.T, eye, a, b * norm(bump) ** 2),
            self._restrict_op(base, f, t0, tag, f"d{dim}"),
            Op(f"transfer-ratio {tag}", f"d{dim}", lambda: opcalc.max_transfer_ratio(base, u),
               expect_value(lambda r: None if oracle.close(
                   r, float(np.linalg.svd(u, compute_uv=False)[-1]))
                   else f"transfer ratio {r!r} != smallest singular value of U")),
            Op(f"tight-scaling {tag}", f"d{dim}",
               lambda: opcalc.tight_scaling_check(base, b, b),
               self._expect_not_tight(t0, b)),
            Op(f"parseval {tag}", f"d{dim}", lambda: opcalc.parseval_check(base),
               expect_value(lambda r: None if r is False else "non-Parseval system called Parseval")),
            Op(f"classify {tag}", f"d{dim}", lambda: biframe.classify(base),
               expect_value(self._check_classification)),
            Op(f"validity-cross-check {tag}", f"d{dim}", lambda: quotient.validity_cross_check(base),
               expect_value(lambda r: self._check_cross(r, t0))),
            Op(f"transform-equivalences {tag}", f"d{dim}",
               lambda: quotient.transform_equivalences(base, u),
               expect_value(lambda r: None if (r.pushed_valid and r.quotient_plain
                                               and r.quotient_pushed and not r.degenerate)
                            else f"transform equivalences disagree with the oracle: {r}")),
        ]
        return ops

    def _check_construction(self, rule, result, after, w, f2, g2, k2, lower, upper):
        if result.rule != rule:
            return f"rule name {result.rule!r}"
        if result.certified == (rule in self.UNCERTIFIED):
            return f"{rule}: certified={result.certified}"
        sys2 = result.system
        for name, got, want in (("F", sys2.analysis.samples, f2), ("G", sys2.synthesis.samples, g2),
                                ("K", sys2.target, k2)):
            if not np.allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want))):
                return f"{rule}: constructed {name} differs from the rule"
        if not (oracle.close(result.guaranteed_lower, lower)
                and oracle.close(result.guaranteed_upper, upper)):
            return (f"{rule}: guaranteed ({result.guaranteed_lower!r}, {result.guaranteed_upper!r})"
                    f" != rule ({lower!r}, {upper!r})")
        truth = Truth.of(f2, g2, w, k2)
        failure = check_report(sys2, truth, after)
        if failure:
            return f"{rule} certification: {failure}"
        slack = 1e-9 * max(abs(lower), abs(truth.lower))
        dominated = truth.lower >= lower - slack and truth.upper <= upper * (1 + 1e-9)
        if not dominated:
            if rule not in self.UNCERTIFIED:
                return f"{rule}: certified constants are not dominated by the optimal ones"
            self.counters.dominance_violations += 1
        return None

    def _restrict_op(self, base, f, t0: Truth, tag: str, group: str) -> Op:
        def run():
            result = opcalc.restrict_to_range(base)
            return result, biframe.optimal_bounds(result.system)

        def check(value):
            result, after = value
            compressed = result.system.analysis.samples
            # an identity target has full range: the compression is unitary,
            # which leaves the sample Gram matrix and the bounds unchanged
            if compressed.shape != f.shape or not np.allclose(
                    compressed @ oracle.adjoint(compressed), f @ oracle.adjoint(f),
                    rtol=1e-9, atol=1e-9 * oracle.norm2(f) ** 2):
                return "restrict: compression is not unitary on the range"
            if not (oracle.close(result.guaranteed_lower, t0.lower)
                    and oracle.close(result.guaranteed_upper, t0.upper)):
                return "restrict: guaranteed bounds differ from (A, B)"
            if not (after.valid and oracle.close(after.lower_opt, t0.lower)
                    and oracle.close(after.upper_opt, t0.upper)):
                return "restrict: recomputed bounds differ from (A, B)"
            return None

        return Op(f"restrict {tag}", group, run, expect_value(check))

    @staticmethod
    def _expect_not_tight(t0: Truth, c: float):
        def check(value, error):
            defect = oracle.norm2(t0.h - c * t0.p)
            if defect <= 1e-9 * oracle.norm2(t0.h):
                return "oracle finds the base tight; test input is wrong"
            if isinstance(error, errors.NotTightError):
                return None
            return f"non-tight system: expected NotTightError, got {error or value!r}"

        return check

    @staticmethod
    def _check_classification(c) -> str | None:
        if c.families_equal or c.tight or c.parseval or c.bessel_only:
            return f"classification {c} for a valid, non-tight, asymmetric system"
        return None

    def _check_cross(self, r, t0: Truth) -> str | None:
        if r.verdict is None:
            self.counters.indeterminate += 1
        elif r.verdict is not True:
            return f"cross-check verdict {r.verdict} for a valid system"
        if not (r.pencil_valid and r.lower_opt is not None
                and oracle.close(r.lower_opt, t0.lower)):
            return f"cross-check pencil side {r.pencil_valid}, lower {r.lower_opt!r}"
        if r.quotient_bounded and not oracle.close(r.quotient_norm, 1.0 / np.sqrt(t0.lower)):
            return f"quotient norm {r.quotient_norm!r} != 1/sqrt(lower)"
        return None

    def _tensor_ops(self, rng, dim: int, complex_: bool) -> list[Op]:
        pair = TensorPair.draw(rng, dim, 3 * dim, complex_)
        s1, s2 = (build(*arrays) for arrays in pair.factors)
        holder: dict = {}

        def run_tensor():
            holder["ts"] = tensor.tensor_system(s1, s2)
            return holder["ts"]

        tag = f"{dim}x{dim} {'complex' if complex_ else 'real'}"
        return [
            Op(f"tensor-system {tag}", f"d{dim * dim}", run_tensor,
               expect_value(pair.check_combined)),
            Op(f"factor-bounds-check {tag}", f"d{dim * dim}",
               lambda: tensor.factor_bounds_check(holder["ts"]),
               expect_value(lambda law: None if law == pair.law
                            else f"product law {law}, oracle says {pair.law}")),
        ]


@dataclass
class TensorPair:
    """Two dense valid factors whose product law has a clear oracle verdict."""

    factors: tuple
    combined: tuple
    truths: tuple
    law: bool

    @classmethod
    def draw(cls, rng, dim: int, nodes: int, complex_: bool) -> "TensorPair":
        while True:
            factors = []
            for _ in range(2):
                f, g, w = make_families(rng, nodes, dim, complex_, valid=True)
                factors.append((f, g, w, make_target(rng, "dense", dim, complex_)))
            combined = tuple(np.kron(x, y) for x, y in zip(*factors))
            truths = [Truth.of(*arrays) for arrays in (*factors, combined)]
            (l1, u1), (l2, u2), (lc, uc) = ((t.lower, t.upper) for t in truths)
            if lc is None:
                continue
            # the program's law: lower >= l1*l2 - tol, upper <= u1*u2 + tol, tol 1e-9
            lower_margin = (lc - (l1 * l2 - 1e-9)) / (l1 * l2)
            upper_margin = ((u1 * u2 + 1e-9) - uc) / (u1 * u2)
            if min(abs(lower_margin), abs(upper_margin)) > oracle.AMBIGUOUS:
                return cls(tuple(factors), combined, tuple(truths),
                           lower_margin > 0 and upper_margin > 0)

    def check_combined(self, ts) -> str | None:
        comb = ts.combined
        f, g, w, k = self.combined
        for name, got, want in (("F", comb.analysis.samples, f), ("G", comb.synthesis.samples, g),
                                ("K", comb.target, k), ("weights", comb.measure.weights, w)):
            if not np.allclose(got, want, rtol=1e-12, atol=0.0):
                return f"tensor {name} is not the Kronecker product"
        return None


# --------------------------------------------------------- cli-manifests


class CliManifests:
    """One CLI command per process, the way a user runs it.

    A cycle is 22 commands: ``demo`` on all 7 bundled systems, 8 reads
    (``bounds`` and ``verify`` on wide 8-dim manifests of 1000-2000 nodes,
    about 1 MB each), 2 ``construct -o`` and 5 ``tensor -o`` on real 4-dim
    factors of 40 nodes, whose outputs hold 32 000-51 000 numbers.  By
    design the demos take ranks 0-32%, the reads 32-68% (p50) and the
    writes 68-100% (p90).  The manifests are written once in set-up; every command is a fresh
    process, so nothing is reused between commands.
    """

    name = "cli-manifests"
    ENTRY = "from biframekit.app.cli import main; main()"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work / f"cli-{seed}"
        self.in_process = False
        self.peak_rss_kb = 0
        self.counters = Counters()
        self._commands: list[Op] = []

    def setup(self) -> None:
        """Write every manifest and operator file the commands read."""
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 0, 3])
        cmds: list[Op] = []
        for name in fixtures.fixture_names() + ("example-5-3",):
            cmds.append(self._demo(name))
        wide = {
            "wide-real": self._wide(rng, "wide-real", 2000, False, "dense", True),
            "wide-complex": self._wide(rng, "wide-complex", 1000, True, "rank-deficient", True),
            "wide-invalid": self._wide(rng, "wide-invalid", 2000, False, "identity", False),
        }
        for key in wide:
            cmds.append(self._bounds(*wide[key]))
        for key in wide:  # the claim each manifest carries
            cmds.append(self._verify(*wide[key], None))
        for key, slot in (("wide-real", 1), ("wide-complex", 0)):  # false claims
            cmds.append(self._verify(*wide[key], overclaim(wide[key][2], slot)))
        cmds.append(self._construct(rng, "apply", wide["wide-real"]))
        cmds.append(self._construct(rng, "sandwich", wide["wide-complex"]))
        for i in range(5):
            cmds.append(self._tensor(rng, f"t{i}", 40))
        self._commands = cmds

    def prepare(self, cycle: int) -> list[Op]:
        return list(self._commands)

    def known_defects(self, cycle: int) -> list[Op]:
        return []

    def warm_up(self) -> None:
        pass

    # -- running one command

    def _invoke(self, args: list[str]) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of one command."""
        args = ["--format", "json", *args]
        if self.in_process:
            from click.testing import CliRunner

            result = CliRunner().invoke(cli.main, args)
            return result.exit_code, result.stdout, result.stderr
        env = dict(os.environ, PYTHONPATH=str(Path(biframe.__file__).parent.parent))
        err_path = self.work / "stderr.txt"
        # stderr goes to a file so that only stdout needs draining, and the
        # child is reaped with wait4 to read its own peak RSS
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", self.ENTRY, *args],
                                    stdout=subprocess.PIPE, stderr=err, env=env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), err_path.read_text(errors="replace")

    def _op(self, label: str, group: str, args: list[str], expect_code: int,
            check_payload: Callable[[dict], str | None]) -> Op:
        def check(value, error):
            if error is not None:
                return f"raised {type(error).__name__}: {error}"
            code, out, err = value
            if code != expect_code:
                return f"exit {code}, expected {expect_code}: {err.strip()[-200:]!r}"
            try:
                payload = json.loads(out)
            except json.JSONDecodeError:
                return f"stdout is not a JSON report: {out[:80]!r}"
            return check_payload(payload)

        return Op(label, group, lambda: self._invoke(args), check)

    # -- inputs and expectations

    def _wide(self, rng, name, nodes, complex_, kind, valid):
        dim = 8
        f, g, w = make_families(rng, nodes, dim, complex_, valid)
        w = w / nodes
        k = make_target(rng, kind, dim, complex_)
        system = build(f, g, w, k)
        truth = Truth.of(f, g, w, k)
        claim = true_claim(truth) if valid else overclaim(truth, 0)
        path = self.work / f"{name}.json"
        path.write_text(manifest.dumps(system, claimed_bounds=claim, label=name))
        return path, system, truth

    def _bounds(self, path, system, truth: Truth) -> Op:
        def check(payload):
            rep = biframe.BoundsReport(
                lower_opt=payload["lower"], upper_opt=payload["upper"], valid=payload["valid"],
                witness_lower=None,
                witness_negative_form=oracle.vector_from_json(payload["negative_form_witness"]),
                asymmetry=payload["asymmetry"])
            return check_report(system, truth, rep)

        return self._op(f"bounds {path.stem}", "read", ["bounds", str(path)],
                        0 if truth.lower is not None else 1, check)

    def _verify(self, path, system, truth: Truth, claim) -> Op:
        """``verify`` of the manifest's own claim (``claim=None``) or of ``claim``."""
        extra = []
        if claim is None:
            claim = manifest.loads(path.read_text()).claimed_bounds
        else:
            extra = ["--lower", repr(float(claim[0])), "--upper", repr(float(claim[1]))]
        holds = oracle.claim_holds(truth.h, truth.p, *claim)

        def check(payload):
            if not (oracle.close(payload["lower"], claim[0], 1e-15)
                    and oracle.close(payload["upper"], claim[1], 1e-15)):
                return f"verify read claim ({payload['lower']}, {payload['upper']}), sent {claim}"
            return check_claim(system, truth, claim, payload["ok"],
                               oracle.vector_from_json(payload["witness"]))

        return self._op(f"verify {path.stem}", "read", ["verify", str(path), *extra],
                        0 if holds else 1, check)

    def _demo(self, name: str) -> Op:
        if name == "example-5-3":
            system = tensor.tensor_system(fixtures.fixture("example-5-3-left"),
                                          fixtures.fixture("example-5-3-right")).combined
        else:
            system = fixtures.fixture(name)
        f, g = system.analysis.samples, system.synthesis.samples
        truth = Truth.of(f, g, system.measure.weights, system.target)

        def check(payload):
            claim = tuple(payload["claimed"])
            if name != "example-5-3" and claim != fixtures.fixture_record(name).claimed_bounds:
                return f"demo used claim {claim}"
            failure = check_claim(system, truth, claim, payload["ok"],
                                  oracle.vector_from_json(payload["witness"]))
            if failure:
                return failure
            if not (oracle.close(payload["lower"], truth.lower)
                    and oracle.close(payload["upper"], truth.upper)):
                return f"demo bounds ({payload['lower']}, {payload['upper']}) != oracle"
            if not payload["ok"]:
                scaled = oracle.vector_from_json(payload["witness_scaled"])
                if not oracle.close(payload["form_at_witness"], oracle.form_at(system, scaled), 1e-9):
                    return "demo form_at_witness disagrees with the form"
            return None

        # the expected exit code is the oracle's verdict on the claim shown
        claim = (1.0, 6.0) if name == "example-5-3" else fixtures.fixture_record(name).claimed_bounds
        holds = oracle.claim_holds(truth.h, truth.p, *claim)
        return self._op(f"demo {name}", "demo", ["demo", name], 0 if holds else 1, check)

    def _construct(self, rng, rule: str, wide) -> Op:
        path, system, truth = wide
        f, g = system.analysis.samples, system.synthesis.samples
        w, k = system.measure.weights, system.target
        complex_ = system.field_name == "complex"
        dim = system.dim
        u = near_identity(rng, dim, complex_, 0.3)
        op_path = self.work / f"{rule}-operator.json"
        rows = [[[z.real, z.imag] for z in row] if complex_ else list(row) for row in u]
        op_path.write_text(json.dumps(rows))
        out = self.work / f"out-{rule}.json"
        norm_u = oracle.norm2(u)
        if rule == "apply":
            k2, lower, upper = u @ k, truth.lower, truth.upper * norm_u**2
        else:
            k2 = u @ k @ oracle.adjoint(u)
            lower, upper = truth.lower / norm_u**2, truth.upper * norm_u**2
        f2, g2 = f @ u.T, g @ u.T
        after = Truth.of(f2, g2, w, k2)
        slack = 1e-8  # the CLI's documented dominance slack
        dominated = after.lower >= lower - slack and after.upper <= upper + slack

        def check(payload):
            if payload["rule"] != rule or payload["certified"] is not True:
                return f"construct {rule}: rule {payload['rule']!r} certified={payload['certified']}"
            if not (oracle.close(payload["guaranteed_lower"], lower)
                    and oracle.close(payload["guaranteed_upper"], upper)):
                return f"construct {rule}: guaranteed bounds differ from the rule"
            if payload["dominated"] is not dominated:
                return f"construct {rule}: dominated={payload['dominated']}, oracle {dominated}"
            rep = biframe.BoundsReport(payload["optimal_lower"], payload["optimal_upper"],
                                       payload["valid"], None, None, 0.0)
            sys2 = build(f2, g2, w, k2)
            failure = check_report(sys2, after, rep)
            if failure:
                return f"construct {rule}: {failure}"
            doc = json.loads(out.read_text())
            for name, want in (("F", f2), ("G", g2), ("K", k2)):
                got = oracle.matrix_from_json(doc[name], complex_)
                if not np.allclose(got, want, rtol=1e-12, atol=1e-15):
                    return f"construct {rule}: written {name} differs from the rule"
            if not np.allclose(doc["claimed_bounds"], [lower, upper], rtol=oracle.REL):
                return f"construct {rule}: written claim {doc['claimed_bounds']}"
            return None

        args = ["construct", str(path), "--op", rule, "--operator", str(op_path), "-o", str(out)]
        return self._op(f"construct {rule} {path.stem}", "construct", args,
                        0 if dominated else 1, check)

    def _tensor(self, rng, name: str, nodes: int) -> Op:
        complex_ = False
        pair = TensorPair.draw(rng, 4, nodes, complex_)
        paths = []
        for side, arrays in zip(("left", "right"), pair.factors):
            path = self.work / f"{name}-{side}.json"
            path.write_text(manifest.dumps(build(*arrays), label=f"{name}-{side}"))
            paths.append(path)
        out = self.work / f"out-{name}.json"

        def check(payload):
            for key, truth in zip(("left", "right", "combined"), pair.truths):
                if not (oracle.close(payload[key]["lower"], truth.lower)
                        and oracle.close(payload[key]["upper"], truth.upper)):
                    return f"tensor {key} bounds {payload[key]} != oracle"
            if payload["product_law"] is not pair.law:
                return f"tensor product_law {payload['product_law']}, oracle {pair.law}"
            if not payload["frame_operator_relative_gap"] <= 1e-12:
                return f"tensor frame-operator gap {payload['frame_operator_relative_gap']}"
            doc = json.loads(out.read_text())
            f, g, w, k = pair.combined
            weights = np.array([node["weight"] for node in doc["measure"]])
            for key, got, want in (("F", oracle.matrix_from_json(doc["F"], complex_), f),
                                   ("K", oracle.matrix_from_json(doc["K"], complex_), k),
                                   ("weights", weights, w)):
                if not np.allclose(got, want, rtol=1e-12, atol=0.0):
                    return f"tensor output {key} is not the Kronecker product"
            return None

        args = ["tensor", str(paths[0]), str(paths[1]), "-o", str(out)]
        return self._op(f"tensor {name}", "tensor", args,
                        0 if pair.law else 1, check)


WORKLOADS = {w.name: w for w in (AnalyzeFresh, CertifyDerived, CliManifests)}
