"""End-to-end CLI behavior through click's test runner."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import biframekit
from biframekit.app import load, save
from biframekit.app import cli
from biframekit.app.cli import main
from biframekit.app.fixtures import fixture, fixture_record


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def manifests(tmp_path):
    """Write the reference systems used below to disk, claims included."""
    paths = {}
    for name in ("example-3-3", "example-3-4", "example-3-11",
                 "example-5-3-left", "example-5-3-right"):
        rec = fixture_record(name)
        path = tmp_path / f"{name}.json"
        save(rec.system, path, claimed_bounds=rec.claimed_bounds, label=name)
        paths[name] = str(path)
    bare = tmp_path / "bare.json"
    save(fixture("example-3-3"), bare)  # no claim, no label
    paths["bare"] = str(bare)
    return paths


class TestBounds:
    def test_valid_system_reports_and_exits_zero(self, runner, manifests):
        result = runner.invoke(main, ["bounds", manifests["example-3-11"]])
        assert result.exit_code == 0
        assert "optimal lower: 1.25" in result.output
        assert "optimal upper: 11" in result.output
        assert "valid: yes" in result.output
        assert "lower witness:" in result.output

    def test_invalid_system_exits_one_with_witness(self, runner, manifests):
        result = runner.invoke(main, ["bounds", manifests["example-3-4"]])
        assert result.exit_code == 1
        assert "valid: no" in result.output
        assert "negative-form witness:" in result.output

    def test_json_report(self, runner, manifests):
        result = runner.invoke(main, ["--format", "json", "bounds",
                                      manifests["example-3-11"]])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["lower"] == pytest.approx(1.25, abs=1e-9)
        assert payload["upper"] == pytest.approx(11.0, abs=1e-9)
        assert payload["valid"] is True
        assert isinstance(payload["witness"], list)

    def test_json_report_of_zero_target_is_strict_json(self, runner, tmp_path):
        path = tmp_path / "zero.json"
        save(fixture("example-3-3").with_target(np.zeros((3, 3))), path)
        result = runner.invoke(main, ["--format", "json", "bounds", str(path)])
        assert result.exit_code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(result.output, parse_constant=reject)
        assert payload["lower"] == "inf"
        assert payload["degenerate"] is True

    def test_lower_constant_outside_the_float_range_is_usage_error(self, runner, tmp_path):
        # K = 1e-170 I: the lower constant is ~1e340, not the zero target's inf
        path = tmp_path / "tiny.json"
        save(fixture("example-3-3").with_target(1e-170 * np.eye(3)), path)
        result = runner.invoke(main, ["bounds", str(path)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "target of scale 2^-565" in result.output
        assert "outside the float64 range" in result.output

    def test_sums_outside_the_float_range_are_usage_error(self, runner, tmp_path):
        # weights 1e300 on entries 1e10: S = 1e320 I is no float64
        path = tmp_path / "huge.json"
        measure = biframekit.DiscreteMeasure(("a", "b"), np.full(2, 1e300))
        save(biframekit.BiframeSystem.from_samples(measure, 1e10 * np.eye(2), 1e10 * np.eye(2),
                                                   np.eye(2)), path, claimed_bounds=(1.0, 2.0))
        for command in ("bounds", "verify"):
            result = runner.invoke(main, [command, str(path)])
            assert result.exit_code == 2, result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert "frame operator's sums lie outside the float64 range" in result.output

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["bounds", str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    def test_malformed_manifest_is_usage_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1,')
        result = runner.invoke(main, ["bounds", str(bad)])
        assert result.exit_code == 2

    def test_integer_literal_past_the_int_string_limit_is_usage_error(self, runner, manifests,
                                                                      tmp_path):
        text = Path(manifests["example-3-3"]).read_text()
        bad = tmp_path / "long.json"
        bad.write_text(text.replace('"dim": 3', '"dim": ' + "1" * 5001))
        result = runner.invoke(main, ["bounds", str(bad)])
        assert result.exit_code == 2
        assert "not valid JSON" in result.output

    @pytest.mark.parametrize("where, message", [
        ("weight", "measure[0].weight: weights strictly positive and finite required"),
        ("F", "F[0][0]: an integer beyond the float range"),
        ("claimed_bounds", "claimed_bounds: an integer beyond the float range"),
    ])
    def test_integer_beyond_the_float_range_is_usage_error(self, runner, manifests, tmp_path,
                                                           where, message):
        doc = json.loads(Path(manifests["example-3-3"]).read_text())
        if where == "weight":
            doc["measure"][0]["weight"] = 10**400
        elif where == "F":
            doc["F"][0][0] = 10**400
        else:
            doc["claimed_bounds"] = [1, 10**400]
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["bounds", str(bad)])
        assert result.exit_code == 2
        assert message in result.output


class TestVerify:
    def test_manifest_claim_verifies(self, runner, manifests):
        result = runner.invoke(main, ["verify", manifests["example-3-3"]])
        assert result.exit_code == 0
        assert "verdict: verified" in result.output

    def test_refuted_claim_prints_witness(self, runner, manifests):
        result = runner.invoke(main, ["verify", manifests["example-3-3"],
                                      "--lower", "3", "--upper", "4"])
        assert result.exit_code == 1
        assert "verdict: REFUTED" in result.output
        assert "lower holds: no" in result.output
        assert "witness:" in result.output

    def test_flags_override_one_side(self, runner, manifests):
        # upper from the manifest claim (5), lower tightened to the optimum
        result = runner.invoke(main, ["verify", manifests["example-3-3"],
                                      "--lower", "2"])
        assert result.exit_code == 0

    def test_no_claim_anywhere_is_usage_error(self, runner, manifests):
        result = runner.invoke(main, ["verify", manifests["bare"]])
        assert result.exit_code == 2

    def test_malformed_pair_is_usage_error(self, runner, manifests):
        result = runner.invoke(main, ["verify", manifests["example-3-3"],
                                      "--lower", "0", "--upper", "1"])
        assert result.exit_code == 2

    def test_json_report_carries_margins(self, runner, manifests):
        result = runner.invoke(main, ["--format", "json", "verify",
                                      manifests["example-3-3"]])
        payload = json.loads(result.output)
        assert payload["ok"] is True
        assert payload["lower_margin"] >= 0
        assert payload["upper_margin"] >= 0


class TestConstruct:
    def test_result_outside_the_float_range_reports_why_and_exits_one(self, runner, tmp_path):
        # a guaranteed constant out of range is refused by the rule: exit 2
        path = tmp_path / "plain.json"
        save(fixture("example-3-3").with_target(np.eye(3)), path)
        result = runner.invoke(main, ["--format", "json", "construct", str(path),
                                      "--op", "product", "--operator",
                                      json.dumps((1e-170 * np.eye(3)).tolist())])
        assert result.exit_code == 2
        assert "outside the float64 range" in result.output
        # constants (1, ~1.07e301) in range, but S' = U S U* of U = 2^500 I is
        # not: nothing to certify with, exit 1
        skew = tmp_path / "skew.json"
        measure = biframekit.DiscreteMeasure(("a", "b"), np.ones(2))
        save(biframekit.BiframeSystem.from_samples(
            measure, np.eye(2), np.array([[1.0, -1e10], [1e10, 1.0]]), np.eye(2)), skew)
        result = runner.invoke(main, ["--format", "json", "construct", str(skew),
                                      "--op", "apply", "--operator",
                                      json.dumps((2.0 ** 500 * np.eye(2)).tolist())])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert "outside the float64 range" in payload["certification_error"]
        assert "dominated" not in payload
        assert (payload["guaranteed_lower"], payload["guaranteed_upper"]) == (1.0, 2.0 ** 1000)

    def test_sandwich_is_certified_and_dominates(self, runner, manifests, tmp_path):
        out = tmp_path / "sandwiched.json"
        result = runner.invoke(main, [
            "construct", manifests["example-3-11"], "--op", "sandwich",
            "--operator", "[[2,0,0],[0,2,0],[0,0,2]]", "-o", str(out),
        ])
        assert result.exit_code == 0
        assert "rule: sandwich (certified)" in result.output
        assert "dominance: ok" in result.output
        rec = load(out)
        assert rec.label == "example-3-11 [sandwich]"
        assert rec.claimed_bounds is not None
        lo, hi = rec.claimed_bounds
        assert lo == pytest.approx(0.3125, abs=1e-9)
        assert hi == pytest.approx(44.0, abs=1e-9)

    def test_operator_may_come_from_a_file(self, runner, manifests, tmp_path):
        op = tmp_path / "op.json"
        op.write_text("[[2,0,0],[0,2,0],[0,0,2]]")
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "sandwich", "--operator", str(op)])
        assert result.exit_code == 0

    def test_commute_dominates(self, runner, manifests):
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "commute",
                                      "--operator", "[[3,0,0],[0,3,0],[0,0,3]]"])
        assert result.exit_code == 0
        assert "guaranteed lower: 11.25" in result.output
        assert "guaranteed upper: 99" in result.output

    def test_stated_sum_rule_can_violate_dominance(self, runner, manifests):
        # two same-target unit-coefficient terms: the stated constant
        # exceeds what the summed system actually achieves
        k_rows = json.dumps(np.diag([2.0, -2.0, -2.0]).tolist())
        term = json.dumps({"coeff": 1.0, "target": json.loads(k_rows)})
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "sum", "--term", term, "--term", term])
        assert result.exit_code == 1
        assert "stated claim" in result.output
        assert "dominance: VIOLATED" in result.output

    @pytest.mark.parametrize("op, operand", [
        ("apply", ["--operator", "[[1,0.2,0],[0,1,0],[0.1,0,2]]"]),
        ("dual", ["--operator", "[[2,0,0],[0,1,0.5],[0,0,1]]"]),
        # U = I: the guaranteed pair is the optimal one, inside the tolerance band
        ("sandwich", ["--operator", "[[1,0,0],[0,1,0],[0,0,1]]"]),
        ("perturb", ["--operator", "[[1,0.5,0],[0.5,1,0],[0,0,0.2]]", "--power", "2"]),
        ("product", ["--operator", "[[1,0,0],[0,2,0],[0,0,0.5]]"]),
        ("commute", ["--operator", "[[2,1,0],[0,1,0],[0,0,1]]"]),
        # two equal terms: the stated lower constant overshoots
        ("sum", ["--term", json.dumps({"coeff": 1.0, "target": np.eye(3).tolist()})] * 2),
    ])
    def test_dominance_is_the_check_bounds_verdict(self, runner, tmp_path, op, operand):
        plain = tmp_path / "plain.json"
        save(fixture("example-3-11").with_target(np.eye(3)), plain)
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["--format", "json", "construct", str(plain),
                                      "--op", op, *operand, "-o", str(out)])
        payload = json.loads(result.output)
        gl, gu = payload["guaranteed_lower"], payload["guaranteed_upper"]
        assert 0 < gl <= gu
        assert payload["dominated"] is biframekit.check_bounds(load(out).system, gl, gu).ok
        assert result.exit_code == (0 if payload["dominated"] else 1)

    @pytest.mark.parametrize("tol, code", [("1e-12", 0), ("1e-9", 1)])
    def test_dual_decides_invertibility_at_the_given_tol(self, runner, tmp_path, tol, code):
        # S = diag(1, 1, 1e-11): valid and invertible at 1e-12, singular at 1e-9
        root = np.diag([1.0, 1.0, 10 ** -5.5])
        path = tmp_path / "ill.json"
        save(biframekit.BiframeSystem.from_samples(
            biframekit.DiscreteMeasure(tuple("abc"), np.ones(3)), root, root, np.eye(3)), path)
        result = runner.invoke(main, ["--tol", tol, "construct", str(path), "--op", "dual",
                                      "--operator", json.dumps(np.eye(3).tolist())])
        assert result.exit_code == code
        assert ("dominance: ok" in result.output) is (code == 0)

    def test_perturb_rejects_indefinite_operator(self, runner, manifests):
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "perturb",
                                      "--operator", "[[-1,0,0],[0,1,0],[0,0,1]]"])
        assert result.exit_code == 1
        assert "construction failed:" in result.stderr

    def test_operator_json_garbage_is_usage_error(self, runner, manifests):
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "apply", "--operator", "[[1,2"])
        assert result.exit_code == 2

    def test_operator_wrong_shape_is_usage_error(self, runner, manifests):
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "apply", "--operator", "[[1,0],[0,1]]"])
        assert result.exit_code == 2

    def test_operator_beyond_the_float_range_is_usage_error(self, runner, manifests):
        operator = f"[[1,0,0],[0,1,0],[0,0,{10**400}]]"
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "apply", "--operator", operator])
        assert result.exit_code == 2
        assert "--operator[2][2]: an integer beyond the float range" in result.output

    @pytest.mark.parametrize("term", [
        {"coeff": 10**400, "target": np.eye(3).tolist()},
        {"coeff": 1, "target": [[1, 0, 0], [0, 1, 0], [0, 0, 10**400]]},
    ])
    def test_term_beyond_the_float_range_is_usage_error(self, runner, manifests, term):
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "sum", "--term", json.dumps(term)])
        assert result.exit_code == 2
        assert "an integer beyond the float range" in result.output

    @pytest.mark.parametrize("option, value", [
        ("--operator", f"[[1,0,0],[0,1,0],[0,0,{'1' * 5001}]]"),
        ("--term", f'{{"coeff": {"1" * 5001}, "target": [[1,0,0],[0,1,0],[0,0,1]]}}'),
    ], ids=["operator", "term"])
    def test_integer_literal_past_the_int_string_limit_is_usage_error(self, runner, manifests,
                                                                      option, value):
        op = "apply" if option == "--operator" else "sum"
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", op, option, value])
        assert result.exit_code == 2
        assert f"{option}: not valid JSON (Exceeds the limit" in result.output

    def test_missing_operator_is_usage_error(self, runner, manifests):
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "dual"])
        assert result.exit_code == 2

    def test_sum_needs_terms(self, runner, manifests):
        result = runner.invoke(main, ["construct", manifests["example-3-11"],
                                      "--op", "sum"])
        assert result.exit_code == 2


class TestTensor:
    def test_combines_and_writes_manifest(self, runner, manifests, tmp_path):
        out = tmp_path / "combined.json"
        result = runner.invoke(main, ["tensor", manifests["example-5-3-left"],
                                      manifests["example-5-3-right"], "-o", str(out)])
        assert result.exit_code == 0
        assert "product law: ok" in result.output
        assert "combined optimal: (2, 6)" in result.output
        rec = load(out)
        assert rec.system.dim == 64
        assert "tensor of" in rec.label

    def test_frame_operator_gap_is_the_node_sum_against_the_factors(self, runner, tmp_path):
        # the combined S is S1 (x) S2 of the factors; the row measures the
        # sum over the product nodes against it, which rounds differently
        rng = np.random.default_rng(12)
        paths = []
        for name in ("left", "right"):
            f = rng.normal(size=(5, 3))
            system = biframekit.BiframeSystem.from_samples(
                biframekit.DiscreteMeasure(tuple("abcde"), rng.uniform(0.5, 2.0, 5)),
                f, f + 0.2 * rng.normal(size=(5, 3)), np.eye(3))
            paths.append(tmp_path / f"{name}.json")
            save(system, paths[-1])
        left, right = (load(p).system for p in paths)
        result = runner.invoke(main, ["--format", "json", "tensor", *map(str, paths),
                                      "-o", str(tmp_path / "out.json")])
        assert result.exit_code in (0, 1), result.output
        gap = json.loads(result.output)["frame_operator_relative_gap"]
        summed = biframekit.BiframeSystem.from_samples(
            biframekit.measure.product_measure(left.measure, right.measure),
            *(np.kron(getattr(left, x).samples, getattr(right, x).samples)
              for x in ("analysis", "synthesis")), np.eye(9))
        want = biframekit.linalg.relative_gap(
            biframekit.frame_operator(summed),
            np.kron(biframekit.frame_operator(left), biframekit.frame_operator(right)))
        assert gap == want and 0.0 < gap <= 1e-12

    def test_output_flag_required(self, runner, manifests):
        result = runner.invoke(main, ["tensor", manifests["example-5-3-left"],
                                      manifests["example-5-3-right"]])
        assert result.exit_code == 2

    def test_invalid_factor_fails(self, runner, manifests, tmp_path):
        out = tmp_path / "combined.json"
        result = runner.invoke(main, ["tensor", manifests["example-3-4"],
                                      manifests["example-3-3"], "-o", str(out)])
        assert result.exit_code == 1
        assert "tensor check failed:" in result.stderr


class TestDemo:
    def test_passing_demo(self, runner):
        result = runner.invoke(main, ["demo", "example-3-11"])
        assert result.exit_code == 0
        assert "verdict: PASS" in result.output
        assert "optimal lower: 1.25" in result.output
        assert "optimal upper: 11" in result.output

    def test_refuted_demo_prints_the_witness_direction(self, runner):
        result = runner.invoke(main, ["demo", "example-3-4"])
        assert result.exit_code == 1
        assert "verdict: FAIL" in result.output
        assert "witness (scaled):" in result.output
        assert "form at witness: -0.333333333333" in result.output

    def test_tensor_demo_passes(self, runner):
        result = runner.invoke(main, ["demo", "example-5-3"])
        assert result.exit_code == 0
        assert "verdict: PASS" in result.output

    def test_quadrature_resolution_does_not_change_the_verdict(self, runner):
        result = runner.invoke(main, ["--quad-nodes", "2", "demo", "example-3-4"])
        assert result.exit_code == 1

    def test_refuted_claim_without_a_witness_prints_no_witness_lines(self, runner,
                                                                     monkeypatch):
        refuted = biframekit.BoundsVerification(ok=False, lower_ok=False, upper_ok=True,
                                                lower_margin=-1.0, upper_margin=1.0,
                                                witness=None)
        monkeypatch.setattr(cli, "check_bounds", lambda *args, **kwargs: refuted)
        result = runner.invoke(main, ["demo", "example-3-3"])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "verdict: FAIL"
        assert "witness" not in result.output

    def test_unknown_demo_is_usage_error(self, runner):
        result = runner.invoke(main, ["demo", "example-0-0"])
        assert result.exit_code == 2

    def test_json_failure_payload(self, runner):
        result = runner.invoke(main, ["--format", "json", "demo", "example-3-4"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["ok"] is False
        assert payload["form_at_witness"] == pytest.approx(-1.0 / 3.0, abs=1e-9)
        scaled = np.array(payload["witness_scaled"])
        np.testing.assert_allclose(np.abs(scaled), [1.0, 1.0, 0.0], atol=1e-9)


class TestComplexReports:
    """A complex manifest: ``F = G`` with rows ``e1``, ``e2`` and ``(e1 + i e2)
    / sqrt 2``, unit weights and target ``I``, so ``Herm(S) = I + v v*`` has
    bounds (1, 2), and the lower witness is ``(1, -i) / sqrt 2``."""

    @pytest.fixture
    def path(self, tmp_path):
        f = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1j]]) / np.array([[1.0], [1.0], [np.sqrt(2.0)]])
        system = biframekit.BiframeSystem.from_samples(
            biframekit.DiscreteMeasure(("a", "b", "c"), np.ones(3)), f, f,
            np.eye(2, dtype=complex))
        path = tmp_path / "complex.json"
        save(system, path)
        return str(path)

    def test_bounds_text_and_json_print_the_same_complex_witness(self, runner, path):
        text = runner.invoke(main, ["bounds", path])
        payload = json.loads(runner.invoke(main, ["--format", "json", "bounds", path]).output)
        assert text.exit_code == 0
        assert "optimal lower: 1\n" in text.output and "optimal upper: 2\n" in text.output
        # JSON writes each entry as [re, im]
        pairs = np.array(payload["witness"])
        assert pairs.shape == (2, 2)
        assert np.allclose(pairs, [[np.sqrt(0.5), 0.0], [0.0, -np.sqrt(0.5)]], atol=1e-12)
        # the text report as a+bi / a-bi, the same numbers at 12 digits
        line = next(ln for ln in text.output.splitlines() if ln.startswith("lower witness: "))
        entries = line.removeprefix("lower witness: [").removesuffix("]").split(", ")
        assert all(re.fullmatch(r"\S+[+-][0-9.e+-]+i", e) for e in entries)
        assert entries[1].endswith("-0.707106781187i")
        parsed = [complex(e.replace("i", "j")) for e in entries]
        assert np.allclose(parsed, pairs[:, 0] + 1j * pairs[:, 1], rtol=1e-11, atol=1e-12)

    def test_bounds_prints_a_real_witness_pivot(self, runner, tmp_path):
        # the witness's first nonzero entry is set to its modulus exactly, so
        # the text report shows no rounding imaginary part at the pivot
        rng = np.random.default_rng(2)
        f = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        system = biframekit.BiframeSystem.from_samples(
            biframekit.DiscreteMeasure(tuple("abcde"), np.ones(5)), f, f, k)
        path = tmp_path / "dense.json"
        save(system, path)
        result = runner.invoke(main, ["bounds", str(path)])
        assert result.exit_code == 0
        line = next(ln for ln in result.output.splitlines() if ln.startswith("lower witness: "))
        assert re.match(r"lower witness: \[[0-9.]+\+0i, ", line), line

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("op", ["sandwich", "apply"])
    def test_construct_reads_a_complex_operator(self, runner, path, tmp_path, fmt, op):
        # U = diag(i, 1) is unitary: both rules keep the bounds (1, 2)
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["--format", fmt, "construct", path, "--op", op,
                                      "--operator", "[[[0, 1], 0], [0, 1]]", "-o", str(out)])
        assert result.exit_code == 0
        if fmt == "json":
            payload = json.loads(result.output)
            assert payload["dominated"] is True
            assert payload["optimal_lower"] == pytest.approx(1.0, rel=1e-12)
        else:
            assert "dominance: ok" in result.output
        target = load(out).system.target
        # apply retargets to U K, sandwich to U K U* = I
        expected = np.diag([1j, 1.0]) if op == "apply" else np.eye(2)
        assert np.allclose(target, expected, atol=1e-15)


class TestTolerance:
    @pytest.mark.parametrize("value", ["-1", "0", "1", "2", "nan", "inf", "-inf"])
    def test_tolerance_outside_the_open_unit_interval_is_usage_error(self, runner, value):
        result = runner.invoke(main, ["--tol", value, "demo", "example-3-3"])
        assert result.exit_code == 2
        assert "--tol" in result.output
        assert "PASS" not in result.output

    def test_tolerance_inside_the_interval_is_accepted(self, runner):
        result = runner.invoke(main, ["--tol", "1e-6", "demo", "example-3-3"])
        assert result.exit_code == 0


_EYE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("option, args", [
    ("--quad-nodes", ["--quad-nodes", "0", "demo", "example-3-4"]),
    ("--power", ["construct", "M", "--op", "perturb", "--operator", json.dumps(_EYE),
                 "--power", "0"]),
    ("--power", ["construct", "M", "--op", "perturb", "--operator", json.dumps(_EYE),
                 "--power", "-1"]),
    ("--operator", ["construct", "M", "--op", "apply",
                    "--operator", "[[1e400,0,0],[0,1,0],[0,0,1]]"]),
    ("--operator", ["construct", "M", "--op", "apply",
                    "--operator", "[[NaN,0,0],[0,1,0],[0,0,1]]"]),
    ("--term", ["construct", "M", "--op", "sum",
                "--term", f'{{"coeff": 1e400, "target": {json.dumps(_EYE)}}}']),
    ("--term", ["construct", "M", "--op", "sum",
                "--term", '{"coeff": 1, "target": [[Infinity,0,0],[0,1,0],[0,0,1]]}']),
    ("--term", ["construct", "M", "--op", "sum", "--term", "[1, 2]"]),
    ("--term", ["construct", "M", "--op", "sum", "--term", '{"coeff": 1}']),
], ids=["quad-nodes-0", "power-0", "power-negative", "operator-overflow", "operator-nan",
        "term-coeff-overflow", "term-target-infinity", "term-not-an-object",
        "term-without-target"])
def test_invalid_argument_is_usage_error(runner, manifests, option, args):
    args = [manifests["example-3-11"] if a == "M" else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert option in result.output
    assert "Traceback" not in result.output


def test_library_import_leaves_the_cli_unloaded():
    """``import biframekit`` must not pull in click or the CLI package: library
    users would pay their import time at every start-up."""
    probe = "import sys, biframekit; print(sorted({'click', 'biframekit.app'} & set(sys.modules)))"
    src = str(Path(biframekit.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert run.stdout.strip() == "[]"


class TestRangeRule:
    """P1: ``Herm(S)`` fits but its top eigenvalue 1.9e308 does not; P2:
    ``S = 1e300 I`` fits though ``w_i F_i`` does not."""

    @pytest.fixture
    def p1(self, tmp_path):
        samples = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        measure = biframekit.DiscreteMeasure(("a", "b", "c"), np.array([1e307, 1e307, 9e307]))
        path = tmp_path / "p1.json"
        save(biframekit.BiframeSystem.from_samples(measure, samples, samples, np.eye(2)), path)
        return str(path)

    def test_an_eigenvalue_beyond_float64_is_usage_error(self, runner, p1):
        # once "optimal upper: inf / valid: no"
        result = runner.invoke(main, ["bounds", p1])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "eigenvalues lie outside the float64 range" in result.output

    def test_a_claim_on_it_is_not_refuted(self, runner, p1):
        # once "lower holds: no", though 1e306 <= 1e307, the lower constant
        result = runner.invoke(main, ["verify", p1, "--lower", "1e306", "--upper", "1e308"])
        assert result.exit_code == 2, result.output
        assert "outside the float64 range" in result.output
        assert "REFUTED" not in result.output

    def test_a_frame_operator_that_fits_is_reported(self, runner, tmp_path):
        measure = biframekit.DiscreteMeasure(("a", "b"), np.full(2, 1e300))
        path = tmp_path / "p2.json"
        save(biframekit.BiframeSystem.from_samples(measure, 1e10 * np.eye(2), 1e-10 * np.eye(2),
                                                   np.eye(2)), path)
        result = runner.invoke(main, ["bounds", str(path)])
        assert result.exit_code == 0, result.output
        assert "optimal lower: 1e+300" in result.output
        assert "optimal upper: 1e+300" in result.output
        assert "valid: yes" in result.output
