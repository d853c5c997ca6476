"""``optimal_bounds`` decomposes ``Herm(S)`` once.

``max_psd_shift`` returns the spectrum of ``Herm(S)`` it gates on, and
``optimal_bounds`` reads the upper constant and the negative-form witness
from it.  ``hermitian_part`` is exactly Hermitian, so that spectrum is, bit
for bit, the one a second decomposition would build: the report must equal
the reference assembly exactly, and cost one eigensolve less.
"""

import numpy as np
import pytest

from biframekit import BiframeSystem, DiscreteMeasure, linalg, optimal_bounds
from biframekit.biframe import frame_operator
from helpers import random_target, random_valid_system, reference_optimal_bounds


def _system(seed: int, *, complex_: bool, target: str, valid: bool, dim: int = 4) -> BiframeSystem:
    rng = np.random.default_rng(seed)
    k = {
        "identity": lambda: np.eye(dim),
        "dense": lambda: random_target(rng, dim, complex_),
        "rank-deficient": lambda: random_target(rng, dim, complex_, rank=dim - 2),
    }[target]()
    system = random_valid_system(rng, dim, complex_=complex_, target=k, asym=0.3)
    if valid:
        return system
    # G = D F with D = diag(1, ..., 1, -1) makes Herm(S) = (D M + M D) / 2 for
    # a positive definite M, whose last diagonal entry -M_nn is negative
    flip = np.r_[np.ones(dim - 1), -1.0]
    f = system.analysis.samples
    return BiframeSystem.from_samples(system.measure, f, f * flip, system.target)


def _scaled(system: BiframeSystem, c: float) -> BiframeSystem:
    return BiframeSystem(
        measure=DiscreteMeasure(system.measure.ids, c * system.measure.weights),
        analysis=system.analysis,
        synthesis=system.synthesis,
        target=system.target,
    )


def _same_vector(got, want) -> bool:
    return got is None and want is None or (
        got is not None and want is not None and np.array_equal(got, want))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("target", ["identity", "dense", "rank-deficient"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "indefinite"])
def test_report_equals_the_two_decomposition_assembly_bit_for_bit(seed, complex_, target, valid):
    # dims 2..5; at dim 2 the rank-deficient target is zero (the degenerate case)
    base = _system(seed, complex_=complex_, target=target, valid=valid, dim=2 + seed)
    report = optimal_bounds(base)  # the draw is the kind it claims
    assert report.valid is valid and (report.witness_negative_form is None) is valid
    for exponent in range(-12, 13):
        system = _scaled(base, 10.0 ** exponent)
        got, want = optimal_bounds(system), reference_optimal_bounds(system)
        assert got.lower_opt == want.lower_opt
        assert got.upper_opt == want.upper_opt
        assert got.valid == want.valid
        assert got.asymmetry == want.asymmetry
        assert got.degenerate == want.degenerate
        assert _same_vector(got.witness_lower, want.witness_lower)
        assert _same_vector(got.witness_negative_form, want.witness_negative_form)


def test_shift_hands_back_the_spectrum_of_its_target():
    system = _system(3, complex_=True, target="dense", valid=True)
    herm = linalg.hermitian_part(frame_operator(system))
    spectrum = linalg.max_psd_shift(herm, np.eye(system.dim)).spectrum
    again = linalg.hermitian_eigen(herm)
    assert np.array_equal(spectrum.values, again.values)
    assert np.array_equal(spectrum.vectors, again.vectors)


@pytest.mark.parametrize("target, valid, calls", [
    # Herm(S), K K*, the whitened pencil
    ("dense", True, 3),
    # Herm(S) fails the PSD gate: no pencil
    ("dense", False, 2),
    # a null space of K K* adds the Schur block s22
    ("rank-deficient", True, 4),
])
def test_optimal_bounds_eigensolve_count(monkeypatch, target, valid, calls):
    system = _system(11, complex_=False, target=target, valid=valid)
    count = []
    real = linalg.hermitian_eigen

    def counted(*args, **kwargs):
        count.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigen", counted)
    report = optimal_bounds(system)
    assert report.valid is valid
    assert len(count) == calls
