import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_canonical, reference_decode
from open5gsim import messages
from open5gsim.errors import InvalidMessageError
from open5gsim.messages import (
    NGAP_INITIAL_UE_MESSAGE,
    NGAP_KINDS,
    RRC_KINDS,
    RRC_RECONFIGURATION_COMPLETE,
    RRC_SECURITY_MODE_COMMAND,
    RRC_SECURITY_MODE_COMPLETE,
    RRC_SETUP,
    RRC_SETUP_COMPLETE,
    RRC_SETUP_REQUEST,
    NgapMessage,
    RrcMessage,
    ngap_from_bytes,
    rrc_from_bytes,
)


@pytest.mark.parametrize(
    "data",
    [
        b"\xff",
        b"{",
        b"[" * 100_000,
        b"[]",
        b"7",
        b"{}",
        b'{"kind":"RrcSetupRequest"}',
        b'{"fields":{}}',
        b'{"kind":[],"fields":{}}',
        b'{"kind":"RrcSetupRequest","fields":[]}',
        b'{"kind":"Bogus","fields":{}}',
    ],
    ids=[
        "utf8", "json", "nesting", "array", "number", "no_keys", "no_fields", "no_kind",
        "kind_not_str", "fields_not_object", "unknown_kind",
    ],
)
@pytest.mark.parametrize("decode", [rrc_from_bytes, ngap_from_bytes], ids=["rrc", "ngap"])
def test_malformed_documents_are_invalid_messages(decode, data):
    with pytest.raises(InvalidMessageError):
        decode(data)


@pytest.mark.parametrize("fields", [{}, {"nas": ""}], ids=["no_nas", "empty_nas"])
def test_a_setup_complete_must_carry_a_nas_payload(fields):
    with pytest.raises(InvalidMessageError) as exc:
        RrcMessage(RRC_SETUP_COMPLETE, fields)
    assert str(exc.value) == "RrcSetupComplete must carry a NAS payload"
    with pytest.raises(InvalidMessageError) as exc:
        rrc_from_bytes(b'{"fields":{},"kind":"RrcSetupComplete"}')
    assert str(exc.value) == "RrcSetupComplete must carry a NAS payload"


@pytest.mark.parametrize(
    "cls, decode, layer", [(RrcMessage, rrc_from_bytes, "RRC"), (NgapMessage, ngap_from_bytes, "NGAP")], ids=["rrc", "ngap"]
)
def test_an_unknown_kind_is_named_and_no_two_messages_share_a_default(cls, decode, layer):
    with pytest.raises(InvalidMessageError) as exc:
        cls("Bogus")
    assert str(exc.value) == f"unknown {layer} kind 'Bogus'"
    with pytest.raises(InvalidMessageError) as exc:
        decode(b'{"fields":{},"kind":"Bogus"}')
    assert str(exc.value) == f"unknown {layer} kind 'Bogus'"
    kind = RRC_SECURITY_MODE_COMPLETE if cls is RrcMessage else NGAP_INITIAL_UE_MESSAGE
    first, second = cls(kind), cls(kind=kind)
    assert first == second == (kind, {})
    first.fields["x"] = 1
    assert second.fields == {}


# -- differential properties against the reference codec ----------------------
# tests/helpers.py keeps the JSON codec as it was before the templates and the
# scanner. Both must agree: the same bytes or the same exception class on
# encode; the same kind and fields, or the same error class and text, on
# decode. (Only a document nested to within a few levels of the interpreter's
# recursion limit can differ: the scanner runs a few frames shallower than
# json.loads runs it.)


class _Code(IntEnum):
    ONE = 1


class _Fields(dict):
    pass


# every templated kind, with a field dict the template writes
_FLAT = {
    RRC_SETUP_REQUEST: {"ue_tmp_id": 1},
    RRC_SETUP: {"crnti": 61, "srb1_bearer": 3},
    RRC_SETUP_COMPLETE: {"nas": "6e6173"},
    RRC_SECURITY_MODE_COMMAND: {"security_info": "7365632d31"},
    RRC_SECURITY_MODE_COMPLETE: {},
    RRC_RECONFIGURATION_COMPLETE: {},
    NGAP_INITIAL_UE_MESSAGE: {"nas": "6e6173", "ue_tmp_id": 1},
}
_KINDS = sorted(RRC_KINDS | NGAP_KINDS)
# values whose JSON text is not their %d or %s text, or that a template must
# not take, next to some that it takes
_HOSTILE = [
    True, False, _Code.ONE, 0, -1, -(10**30), 10**30, 1.5, float("nan"), float("inf"), None,
    "", " ~", '"', "a\\b", "\n", "\x00", "\x1f", "\x7f", "\x80", "\xe9", "\u2028", "\ud800", "x" * 300,
    [1, [2]], (1,), {"a": 1}, b"00",
]
_HOSTILE_IDS = [repr(v)[:12] for v in _HOSTILE]


def _encoded(fn, kind, fields):
    try:
        return fn(kind, fields)
    except Exception as exc:  # the class must agree; the text is Python's own
        return type(exc)


def _assert_encoders_agree(kind, fields) -> None:
    assert _encoded(messages._canonical, kind, fields) == _encoded(reference_canonical, kind, fields)


def _decoded(fn, data: bytes):
    try:
        return repr(fn(data))  # NaN is not equal to itself, its repr is
    except InvalidMessageError as exc:
        return type(exc), str(exc)


def _assert_decoders_agree(data: bytes) -> None:
    assert _decoded(messages._decode, data) == _decoded(reference_decode, data)


def test_every_templated_kind_writes_its_canonical_bytes():
    for kind, fields in _FLAT.items():
        assert messages._canonical(kind, fields) == reference_canonical(kind, fields)
        assert messages._canonical(kind, dict(reversed(fields.items()))) == reference_canonical(kind, fields)


_SLOTS = [(kind, name) for kind, fields in _FLAT.items() for name in fields]


@pytest.mark.parametrize("value", _HOSTILE, ids=_HOSTILE_IDS)
@pytest.mark.parametrize("kind, name", _SLOTS, ids=[f"{k}.{n}" for k, n in _SLOTS])
def test_a_templated_field_holding_a_hostile_value(kind, name, value):
    _assert_encoders_agree(kind, {**_FLAT[kind], name: value})


@pytest.mark.parametrize(
    "reshape",
    [
        lambda f: {**f, "extra": 1},
        lambda f: {**f, 1: 1},
        lambda f: {k: v for k, v in list(f.items())[1:]},
        lambda f: _Fields(f),
        lambda f: list(f.items()),
        lambda f: None,
        lambda f: {**f, "nested": [{"a": [1, "b"]}]},
    ],
    ids=["extra_key", "int_key", "missing_key", "dict_subclass", "list", "none", "nested"],
)
@pytest.mark.parametrize("kind", _FLAT)
def test_a_templated_kind_with_other_fields(kind, reshape):
    _assert_encoders_agree(kind, reshape(_FLAT[kind]))


_SCALARS = st.one_of(
    st.sampled_from(_HOSTILE), st.integers(), st.text(), st.floats(), st.booleans(), st.none()
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3))


@st.composite
def _kinds_and_fields(draw):
    kind = draw(st.sampled_from(_KINDS) | st.text(max_size=8))
    if kind in _FLAT and draw(st.booleans()):  # the template's keys, some value replaced
        fields = dict(_FLAT[kind])
        for name in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2)) if fields else ():
            fields[name] = draw(_VALUES)
        return kind, fields
    keys = st.sampled_from(sorted({n for f in _FLAT.values() for n in f})) | st.text(max_size=4)
    return kind, draw(st.dictionaries(keys | st.integers(0, 3), _VALUES, max_size=3) | _VALUES)


@given(_kinds_and_fields())
@settings(max_examples=500)
def test_encoder_agrees_with_reference(kind_and_fields):
    _assert_encoders_agree(*kind_and_fields)


_NEAR_VALID = [
    b'{"fields":{},"kind":"RrcReconfigurationComplete"}',
    b'{"fields":{"crnti":61,"srb1_bearer":3},"kind":"RrcSetup"}',
    b'{"fields":{"a":NaN,"b":Infinity,"c":-Infinity},"kind":"RrcSetup"}',
    b'{"fields":{"crnti":1,"crnti":2},"kind":"RrcSetup","kind":"Bogus"}',
    b'{"fields":{"a":1e400,"b":-0.0,"c":"\\ud800"},"kind":"RrcSetup"}',
    b'{"fields":{},"kind":"RrcSetup"}{}',
    b"[" * 100_000,
    b"",
]
_AROUND = ["", " ", "\n", " \t\r\n", "\ufeff", " x", "x", "{}", "]", ",", "\x00", "\xa0"]


_WRAPPINGS = [(w, "") for w in _AROUND[1:]] + [("", w) for w in _AROUND[1:]] + [(w, w) for w in _AROUND]


@pytest.mark.parametrize("before, after", _WRAPPINGS, ids=repr)
@pytest.mark.parametrize("doc", _NEAR_VALID[:2], ids=["empty", "setup"])
def test_decoder_agrees_with_reference_around_a_document(doc, before, after):
    _assert_decoders_agree(before.encode() + doc + after.encode())


@pytest.mark.parametrize("data", _NEAR_VALID, ids=lambda d: repr(d[:16]))
@pytest.mark.parametrize(
    "decode, message", [(rrc_from_bytes, RrcMessage), (ngap_from_bytes, NgapMessage)], ids=["rrc", "ngap"]
)
def test_near_valid_documents_decode_as_before(decode, message, data):
    _assert_decoders_agree(data)
    assert _decoded(decode, data) == _decoded(lambda d: message(*reference_decode(d)), data)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _documents(draw):
    doc = {"kind": draw(st.sampled_from(_KINDS) | st.text(max_size=4)), "fields": draw(_JSON)}
    if draw(st.booleans()):
        doc = draw(_JSON)
    text = json.dumps(doc, sort_keys=draw(st.booleans()), separators=draw(st.sampled_from([None, (",", ":")])))
    text = draw(st.sampled_from(_AROUND)) + text + draw(st.sampled_from(_AROUND))
    return text.encode()


@given(st.binary(max_size=64) | st.sampled_from(_NEAR_VALID) | _documents())
@settings(max_examples=500)
def test_decoder_agrees_with_reference(data):
    _assert_decoders_agree(data)
