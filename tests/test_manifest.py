"""JSON manifest round-trips and schema validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biframekit as bk
from biframekit import BiframeSystem, DiscreteMeasure, errors
from biframekit.app import FORMAT_VERSION, dumps, load, loads, save
from biframekit.app.fixtures import fixture, fixture_names, fixture_record
from biframekit.app.manifest import _parse_matrix
from biframekit.tensor import tensor_system
from helpers import random_valid_system, reference_dumps, reference_parse_matrix


def _doc(**overrides):
    """A minimal well-formed manifest document as a dict."""
    base = {
        "format_version": FORMAT_VERSION,
        "field": "real",
        "dim": 2,
        "measure": [{"id": "a", "weight": 1.0}, {"id": "b", "weight": 0.5}],
        "F": [[1.0, 0.0], [0.0, 1.0]],
        "G": [[1.0, 0.0], [0.0, 1.0]],
        "K": [[1.0, 0.0], [0.0, 1.0]],
    }
    base.update(overrides)
    return base


class TestRoundTrip:
    def test_real_system_is_bit_exact(self):
        rng = np.random.default_rng(3)
        sys_ = random_valid_system(rng, 3, nodes=5)
        text = dumps(sys_, claimed_bounds=(0.25, 7.5), label="round trip")
        rec = loads(text)
        assert rec.claimed_bounds == (0.25, 7.5)
        assert rec.label == "round trip"
        assert dumps(rec.system, claimed_bounds=rec.claimed_bounds,
                     label=rec.label) == text
        np.testing.assert_array_equal(rec.system.analysis.samples,
                                      sys_.analysis.samples)
        np.testing.assert_array_equal(rec.system.target, sys_.target)
        assert rec.system.measure.ids == sys_.measure.ids

    def test_complex_system_is_bit_exact(self):
        rng = np.random.default_rng(4)
        sys_ = random_valid_system(rng, 2, nodes=4, complex_=True)
        text = dumps(sys_)
        rec = loads(text)
        assert rec.claimed_bounds is None and rec.label is None
        assert rec.system.field_name == "complex"
        assert dumps(rec.system) == text
        np.testing.assert_array_equal(rec.system.synthesis.samples,
                                      sys_.synthesis.samples)

    def test_fixture_claims_survive(self):
        rec = fixture_record("example-3-11")
        text = dumps(rec.system, claimed_bounds=rec.claimed_bounds)
        assert loads(text).claimed_bounds == rec.claimed_bounds

    def test_save_and_load_files(self, tmp_path):
        path = tmp_path / "sys.json"
        save(fixture("example-3-3"), path, claimed_bounds=(2.0, 5.0), label="disk")
        rec = load(path)
        assert rec.label == "disk"
        assert rec.claimed_bounds == (2.0, 5.0)
        assert rec.system.dim == 3

    def test_canonical_form(self):
        text = dumps(fixture("example-3-5"))
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)


class TestParseErrors:
    def test_bad_json_carries_position(self):
        with pytest.raises(errors.ManifestParseError) as info:
            loads('{"format_version": 1,\n  "field": }')
        assert info.value.line == 2
        assert info.value.column is not None

    def test_integer_literal_past_the_int_string_limit(self):
        # json raises a plain ValueError here (Python caps int literals at
        # 4300 digits), not a JSONDecodeError, so there is no position
        with pytest.raises(errors.ManifestParseError, match="not valid JSON") as info:
            loads('{"dim": ' + "1" * 5001 + "}")
        assert info.value.line is None and info.value.column is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "nope.json")


class TestValidation:
    def _expect(self, doc, fragment):
        with pytest.raises(errors.ManifestValidationError, match=fragment):
            loads(json.dumps(doc))

    def test_top_level_must_be_object(self):
        self._expect([1, 2], "top level")

    def test_unknown_field_rejected(self):
        self._expect(_doc(extra=1), "unexpected field")

    def test_missing_required_field(self):
        doc = _doc()
        del doc["K"]
        self._expect(doc, "K: missing")

    def test_wrong_format_version(self):
        self._expect(_doc(format_version=2), "format_version")

    def test_bad_field_value(self):
        self._expect(_doc(field="quaternion"), "field")

    def test_non_positive_dim(self):
        self._expect(_doc(dim=0), "dim")

    def test_boolean_dim_rejected(self):
        self._expect(_doc(dim=True), "dim")

    def test_empty_measure(self):
        self._expect(_doc(measure=[]), "measure")

    def test_negative_weight(self):
        doc = _doc()
        doc["measure"][1]["weight"] = -1.0
        self._expect(doc, "strictly positive")

    def test_boolean_weight(self):
        doc = _doc()
        doc["measure"][0]["weight"] = True
        self._expect(doc, "strictly positive")

    def test_duplicate_node_ids(self):
        doc = _doc()
        doc["measure"][1]["id"] = "a"
        self._expect(doc, "unique")

    def test_non_string_node_id(self):
        doc = _doc()
        doc["measure"][0]["id"] = 3
        self._expect(doc, "measure\\[0\\]\\.id")

    def test_extra_node_key(self):
        doc = _doc()
        doc["measure"][0]["note"] = "hi"
        self._expect(doc, "measure\\[0\\]")

    def test_wrong_row_count(self):
        self._expect(_doc(F=[[1.0, 0.0]]), "F: expected 2 rows")

    def test_wrong_row_width(self):
        self._expect(_doc(G=[[1.0], [0.0, 1.0]]), "G\\[0\\]")

    def test_boolean_matrix_entry(self):
        self._expect(_doc(K=[[True, 0.0], [0.0, 1.0]]), "booleans")

    def test_complex_pair_rejected_in_real_field(self):
        self._expect(_doc(K=[[[1.0, 2.0], 0.0], [0.0, 1.0]]), "expected a number")

    def test_complex_pair_parsed_in_complex_field(self):
        doc = _doc(field="complex")
        doc["K"] = [[[0.0, 1.0], 0.0], [0.0, 1.0]]
        rec = loads(json.dumps(doc))
        assert rec.system.target[0, 0] == 1j

    def test_malformed_claim_shape(self):
        self._expect(_doc(claimed_bounds=[1.0]), "claimed_bounds")

    def test_claim_ordering_enforced(self):
        self._expect(_doc(claimed_bounds=[3.0, 2.0]), "lower <= upper")

    def test_claim_must_be_positive(self):
        self._expect(_doc(claimed_bounds=[0.0, 2.0]), "lower")

    def test_null_claim_means_absent(self):
        assert loads(json.dumps(_doc(claimed_bounds=None))).claimed_bounds is None

    def test_label_must_be_string(self):
        self._expect(_doc(label=7), "label")

    def test_system_level_problems_surface(self):
        # json.dumps spells inf as the literal Infinity, which parses back to
        # a float, passes the schema, and must be caught by the constructor
        doc = _doc(K=[[float("inf"), 0.0], [0.0, 1.0]])
        with pytest.raises(errors.ManifestValidationError, match="finite"):
            loads(json.dumps(doc))

    def test_huge_integer_weight_loads_as_a_float(self):
        doc = _doc()
        doc["measure"][0]["weight"] = 10**30
        assert loads(json.dumps(doc)).system.measure.weights[0] == 1e30

    def test_huge_integer_matrix_entry_loads_as_a_float(self):
        assert loads(json.dumps(_doc(F=[[10**30, 0], [0, 1]]))).system.analysis.samples[0, 0] == 1e30

    def test_integer_weight_beyond_the_float_range(self):
        doc = _doc()
        doc["measure"][1]["weight"] = 10**400
        self._expect(doc, r"measure\[1\]\.weight: weights strictly positive and finite")

    @pytest.mark.parametrize("name", ["F", "G", "K"])
    @pytest.mark.parametrize("field, entry", [
        ("real", 10**400), ("real", -10**400), ("complex", 10**400), ("complex", [1, 10**400]),
    ], ids=["real", "real-negative", "complex", "complex-pair"])
    def test_integer_entry_beyond_the_float_range(self, name, field, entry):
        doc = _doc(field=field, **{name: [[1, 0], [0, entry]]})
        self._expect(doc, rf"{name}\[1\]\[1\]: an integer beyond the float range")

    @pytest.mark.parametrize("pair", [[1, 10**400], [10**400, 10**401]], ids=["upper", "both"])
    def test_integer_claim_beyond_the_float_range(self, pair):
        self._expect(_doc(claimed_bounds=pair), "claimed_bounds: an integer beyond the float range")

    def test_manifest_errors_are_biframe_errors(self):
        assert issubclass(errors.ManifestParseError, errors.BiframeError)
        assert issubclass(errors.ManifestValidationError, errors.BiframeError)


# ------------------------------------------------- agreement with the references

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 1e16, 2.0 ** 53, 0.1]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
node_ids = st.one_of(st.sampled_from(['"', "\\", "\x00\n\t", "(a,b)", "⊗", "é", "\U0001f600"]),
                     st.text(max_size=6))
labels = st.one_of(st.none(), node_ids, st.text())
real_entries = st.one_of(finite_floats, st.integers(-2 ** 70, 2 ** 70))
complex_entries = st.one_of(real_entries, st.lists(real_entries, min_size=2, max_size=2))


@st.composite
def systems(draw):
    complex_ = draw(st.booleans())
    dim = draw(st.integers(1, 6))
    nodes = draw(st.integers(1, 20))

    def matrix(rows):
        parts = 2 if complex_ else 1
        flat = draw(st.lists(finite_floats, min_size=rows * dim * parts,
                             max_size=rows * dim * parts))
        mat = np.array(flat, dtype=np.float64).reshape(rows, dim, parts)
        return mat.view(np.complex128)[..., 0] if complex_ else mat[..., 0]

    ids = draw(st.lists(node_ids, min_size=nodes, max_size=nodes, unique=True))
    weights = draw(st.lists(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                            min_size=nodes, max_size=nodes))
    return BiframeSystem.from_samples(DiscreteMeasure(tuple(ids), np.array(weights)),
                                      matrix(nodes), matrix(nodes), matrix(dim))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDumpsMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(systems(),
           st.one_of(st.none(), st.tuples(st.floats(), st.floats())),
           labels)
    def test_random_systems(self, system, claim, label):
        assert dumps(system, claimed_bounds=claim, label=label) \
            == reference_dumps(system, claimed_bounds=claim, label=label)

    @pytest.mark.parametrize("name", fixture_names())
    def test_bundled_fixtures(self, name):
        rec = fixture_record(name)
        assert dumps(rec.system, claimed_bounds=rec.claimed_bounds, label=name) \
            == reference_dumps(rec.system, claimed_bounds=rec.claimed_bounds, label=name)

    def test_tensor_system(self):
        combined = tensor_system(fixture("example-5-3-left"), fixture("example-5-3-right")).combined
        assert dumps(combined, label="⊗") == reference_dumps(combined, label="⊗")


class TestParseMatrixMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans(), st.integers(1, 6), st.integers(1, 6))
    def test_valid_input_gives_the_same_bits(self, data, complex_field, n_rows, n_cols):
        entry = complex_entries if complex_field else real_entries
        rows = data.draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows))
        assert _same_bits(_parse_matrix(rows, n_rows, n_cols, complex_field, "K"),
                          reference_parse_matrix(rows, n_rows, n_cols, complex_field, "K"))

    def test_negative_zero_imaginary_part_keeps_its_sign(self):
        doc = _doc(field="complex")
        doc["K"] = [[[1.0, -0.0], 0.0], [[-0.0, -0.0], [1.0, 0.0]]]
        target = loads(json.dumps(doc)).system.target
        assert list(np.signbit(target.imag).ravel()) == [True, False, True, False]
        assert _same_bits(target, reference_parse_matrix(doc["K"], 2, 2, True, "K"))

    @pytest.mark.parametrize("complex_field, rows", [
        (False, [[1.0, True], [0.0, 1.0]]),
        (True, [[1.0, 0.0], [False, 1.0]]),
        (False, [[1.0, "2"], [0.0, 1.0]]),
        (True, [[1.0, "2"], [0.0, 1.0]]),
        (False, [[1.0, 0.0], [None, 1.0]]),
        (False, [[{"re": 1.0}, 0.0], [0.0, 1.0]]),
        (False, [[[1.0, 2.0], 0.0], [0.0, 1.0]]),
        (True, [[[1.0], 0.0], [0.0, 1.0]]),
        (True, [[1.0, [1.0, 2.0, 3.0]], [0.0, 1.0]]),
        (True, [[1.0, 0.0], [[1.0, True], 1.0]]),
        (True, [[1.0, 0.0], [[[1.0], 2.0], 1.0]]),
        (False, [[1.0, 0.0], [0.0]]),
        (False, [[1.0, 0.0], 5]),
        (False, [[1.0, 0.0]]),
        (False, {"rows": 2}),
        # a bad entry before a ragged row is named first, and vice versa
        (False, [[1.0, True], [0.0]]),
        (True, [[1.0, 0.0, 2.0], [[1.0], 1.0]]),
        # integers beyond the float range pass the type checks, not the conversion
        (False, [[1.0, 0.0], [0.0, 10**400]]),
        (True, [[1.0, 0.0], [[0.0, -10**400], 1.0]]),
        (True, [[1.0, 10**400], [[0.0, 1.0], 1.0]]),
        (False, [[10**400, 0.0], [0.0]]),
    ])
    def test_malformed_input_gives_the_same_error(self, complex_field, rows):
        with pytest.raises(errors.ManifestValidationError) as expected:
            reference_parse_matrix(rows, 2, 2, complex_field, "G")
        with pytest.raises(type(expected.value)) as got:
            _parse_matrix(rows, 2, 2, complex_field, "G")
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
