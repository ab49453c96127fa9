import numpy as np
import pytest

from sympeq import attenuator, two_mode_squeezed
from sympeq.io import (
    FormatError,
    bipartite_from_doc,
    bipartite_to_doc,
    channel_from_doc,
    channel_to_doc,
    dumps,
    format_float,
    load_document,
    matrix_from_doc,
    matrix_to_doc,
    save_document,
)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5))
    path = tmp_path / "m.json"
    save_document(matrix_to_doc(m), str(path))
    back = matrix_from_doc(load_document(str(path)))
    assert np.array_equal(back, m)  # 17 significant digits round-trip exactly


def test_matrix_doc_rejects_length_mismatch():
    with pytest.raises(FormatError):
        matrix_from_doc({"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]})


def test_matrix_doc_rejects_bad_shape_fields():
    with pytest.raises(FormatError):
        matrix_from_doc({"rows": 0, "cols": 2, "data": []})
    with pytest.raises(FormatError):
        matrix_from_doc({"rows": "2", "cols": 2, "data": [1, 2, 3, 4]})


def test_matrix_doc_rejects_missing_fields():
    with pytest.raises(FormatError):
        matrix_from_doc({"rows": 2, "cols": 2})


def test_reader_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 2, "data": [1.0, NaN]}')
    with pytest.raises(FormatError):
        load_document(str(path))


def test_reader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(FormatError):
        load_document(str(path))


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0
    assert format_float(1.0) == "1"


def test_dumps_deterministic():
    doc = {"a": 1, "b": [0.1, 0.2], "c": {"d": True, "e": None}}
    assert dumps(doc) == dumps(doc)
    assert dumps(doc) == '{"a": 1, "b": [0.10000000000000001, 0.20000000000000001], "c": {"d": true, "e": null}}'


def test_dumps_rejects_non_finite():
    with pytest.raises(FormatError):
        dumps({"v": float("inf")})


def test_bipartite_round_trip():
    g = two_mode_squeezed(0.8, pairs=2)
    back = bipartite_from_doc(bipartite_to_doc(g))
    assert back.n == g.n
    assert np.array_equal(back.gamma_a, g.gamma_a)
    assert np.array_equal(back.x, g.x)


def test_channel_round_trip_recomputes_validity():
    ch = attenuator(0.36)
    doc = channel_to_doc(ch)
    back = channel_from_doc(doc)
    assert np.array_equal(back.x, ch.x)
    assert back.validity_residual == pytest.approx(0.0, abs=1e-12)


def test_channel_doc_rejects_dimension_mismatch():
    doc = {
        "n": 2,
        "x": matrix_to_doc(np.eye(2)),
        "y": matrix_to_doc(np.zeros((2, 2))),
    }
    with pytest.raises(FormatError):
        channel_from_doc(doc)


@pytest.mark.parametrize(
    "data",
    [
        [True, False, False, True],
        [1.0, 0.0, 0.0, "1e0"],
        [True, 0, 0, "1e0"],
        [1.0, 0.0, 0.0, int("9" * 401)],
    ],
    ids=["booleans", "numeric string", "boolean and string", "integer too large for a float"],
)
def test_matrix_doc_rejects_entries_that_are_not_float_numbers(data):
    with pytest.raises(FormatError, match="data entries must"):
        matrix_from_doc({"rows": 2, "cols": 2, "data": data})


def test_matrix_doc_reads_integer_entries_as_floats():
    back = matrix_from_doc({"rows": 2, "cols": 2, "data": [1, 0, 0, 2**53 + 1]})
    assert back.dtype == float
    assert np.array_equal(back, np.diag([1.0, float(2**53 + 1)]))


@pytest.mark.parametrize("field", ["gamma_a", "gamma_b", "x"])
def test_bipartite_doc_rejects_a_matrix_that_does_not_fit_n(field):
    doc = bipartite_to_doc(two_mode_squeezed(0.5))
    doc[field] = matrix_to_doc(np.eye(4))
    with pytest.raises(FormatError, match=f"{field} must be 2x2 for n=1"):
        bipartite_from_doc(doc)


@pytest.mark.parametrize("field", ["x", "y"])
def test_channel_doc_rejects_a_matrix_that_does_not_fit_n(field):
    doc = channel_to_doc(attenuator(0.36))
    doc[field] = matrix_to_doc(np.eye(4))
    with pytest.raises(FormatError, match=f"{field} must be 2x2 for n=1"):
        channel_from_doc(doc)
