import math

import pytest
from hypothesis import given, strategies as st

from toolgrid.values import (
    INT64_MAX,
    INT64_MIN,
    TEXT,
    Datum,
    DatumType,
    FileRef,
    convert,
    convertible,
    datum_from_json,
    infer_scalar_type,
    misfit,
    scalar_datum,
)

DIGEST = "a" * 64


def test_parse_all_type_names():
    for name in ("boolean", "integer", "float", "text", "file"):
        assert DatumType.parse(name).value == name


def test_parse_rejects_unknown_and_case_variants():
    for bad in ("Boolean", "int", "double", "", "FLOAT"):
        with pytest.raises(ValueError):
            DatumType.parse(bad)


def test_datum_constructors_carry_type():
    assert Datum.boolean(True).type is DatumType.BOOLEAN
    assert Datum.integer(-5).type is DatumType.INTEGER
    assert Datum.of_float(1).value == 1.0  # coerces int argument
    assert Datum.text("hi").type is DatumType.TEXT
    ref = Datum.file(DIGEST, "data.bin")
    assert ref.value == FileRef(DIGEST, "data.bin")


def test_type_value_mismatches_rejected():
    with pytest.raises(ValueError):
        Datum(DatumType.INTEGER, True)  # bool is not an integer here
    with pytest.raises(ValueError):
        Datum(DatumType.BOOLEAN, 1)
    with pytest.raises(ValueError):
        Datum(DatumType.FLOAT, 1)  # declared float wants an actual float
    with pytest.raises(ValueError):
        Datum(DatumType.TEXT, b"bytes")


def test_integer_range_is_signed_64_bit():
    Datum.integer(INT64_MIN)
    Datum.integer(INT64_MAX)
    with pytest.raises(ValueError):
        Datum.integer(INT64_MAX + 1)
    with pytest.raises(ValueError):
        Datum.integer(INT64_MIN - 1)


def test_file_ref_validates_digest_and_filename():
    with pytest.raises(ValueError):
        FileRef("abc", "x.bin")  # short digest
    with pytest.raises(ValueError):
        FileRef("A" * 64, "x.bin")  # uppercase hex not canonical
    with pytest.raises(ValueError):
        FileRef(DIGEST, "sub/dir.bin")  # no path separators
    with pytest.raises(ValueError):
        FileRef(DIGEST, "..")


def test_literal_forms():
    assert Datum.boolean(True).literal() == "true"
    assert Datum.boolean(False).literal() == "false"
    assert Datum.integer(42).literal() == "42"
    assert Datum.of_float(0.1).literal() == "0.1"
    assert Datum.text("a b").literal() == "a b"
    with pytest.raises(ValueError):
        Datum.file(DIGEST, "f").literal()


def test_float_literal_roundtrips_exactly():
    # repr of a binary64 must parse back to the identical value
    for v in (0.1, 1e-300, math.pi, -0.0, 2.0 ** 52 + 1):
        assert float(Datum.of_float(v).literal()) == v


def test_json_roundtrip_scalars_and_files():
    for d in (Datum.boolean(False), Datum.integer(7), Datum.of_float(2.5),
              Datum.text("x"), Datum.file(DIGEST, "out.dat")):
        assert datum_from_json(d.to_json()) == d


def test_datum_from_json_rejects_junk():
    with pytest.raises(ValueError):
        datum_from_json({"value": 1})
    with pytest.raises(ValueError):
        datum_from_json("nope")
    with pytest.raises(ValueError):
        datum_from_json({"type": "file", "digest": "bad", "filename": "f"})


def test_scalar_datum_int_to_float_promotion():
    d = scalar_datum(3, DatumType.FLOAT)
    assert d.type is DatumType.FLOAT and d.value == 3.0
    with pytest.raises(ValueError):
        scalar_datum(True, DatumType.FLOAT)  # bools never promote
    with pytest.raises(ValueError):
        scalar_datum("3", DatumType.INTEGER)


def test_infer_scalar_type():
    assert infer_scalar_type(True) is DatumType.BOOLEAN
    assert infer_scalar_type(2) is DatumType.INTEGER
    assert infer_scalar_type(2.0) is DatumType.FLOAT
    assert infer_scalar_type("s") is DatumType.TEXT
    with pytest.raises(ValueError):
        infer_scalar_type(None)
    with pytest.raises(ValueError):
        infer_scalar_type([1])


def test_convertible_matrix():
    types = list(DatumType)
    for a in types:
        for b in types:
            expected = a is b or (a is DatumType.INTEGER and b is DatumType.FLOAT)
            assert convertible(a, b) == expected


def test_convert_applies_only_int_to_float():
    out = convert(Datum.integer(4), DatumType.FLOAT)
    assert out == Datum.of_float(4.0)
    same = Datum.text("t")
    assert convert(same, DatumType.TEXT) is same
    with pytest.raises(ValueError):
        convert(Datum.of_float(4.0), DatumType.INTEGER)
    with pytest.raises(ValueError):
        convert(Datum.boolean(True), DatumType.INTEGER)


scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.floats(allow_nan=False),
    st.text(max_size=200),
)


@given(scalars)
def test_inferred_scalars_roundtrip_json(value):
    d = scalar_datum(value, infer_scalar_type(value))
    back = datum_from_json(d.to_json())
    assert back == d
    assert back.value == value and type(back.value) is type(value)


SHAPE = {"id": TEXT, "count?": int, "flag?": bool, "tags?": [str],
         "env?": {"*": str}, "inner?": {"path": str}, "any?": dict}


@pytest.mark.parametrize("doc, found", [
    ({"id": "a"}, None),
    ({"id": "a", "count": None, "tags": [], "env": {}, "any": {"k": [1]}}, None),
    ({"id": "a", "unnamed": 1}, None),  # open unless closed
    ([], ("", "expected object")),
    ({}, ("id", "missing")),
    ({"id": None}, ("id", "missing")),
    ({"id": ""}, ("id", "expected non-empty text")),
    ({"id": "a", "count": True}, ("count", "expected integer")),
    ({"id": "a", "count": 1.0}, ("count", "expected integer")),
    ({"id": "a", "flag": 0}, ("flag", "expected boolean")),
    ({"id": "a", "tags": ["x", 2]}, ("tags[1]", "expected text")),
    ({"id": "a", "tags": "x"}, ("tags", "expected list")),
    ({"id": "a", "env": {"HOME": 1}}, ("env.HOME", "expected text")),
    ({"id": "a", "inner": {}}, ("inner.path", "missing")),
    ({"id": "a", "any": []}, ("any", "expected object")),
])
def test_misfit_names_the_first_departure(doc, found):
    assert misfit(SHAPE, doc) == found


def test_a_closed_shape_refuses_unnamed_keys_at_every_level():
    assert misfit(SHAPE, {"id": "a", "extra": 1}, closed=True) == (
        "extra", "unknown field")
    assert misfit(SHAPE, {"id": "a", "inner": {"path": "p", "mode": 1}},
                  closed=True) == ("inner.mode", "unknown field")
    # the values of a "*" map and of a dict kind are not keys of the shape
    assert misfit(SHAPE, {"id": "a", "env": {"X": "1"}, "any": {"k": 1}},
                  closed=True) is None
    assert misfit([{"name": str}], [{"name": "x", "unit": "m"}], "inputs",
                  closed=True) == ("inputs[0].unit", "unknown field")
