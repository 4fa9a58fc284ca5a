import pytest

from open5gsim.errors import InvalidMessageError
from open5gsim.messages import RRC_SETUP_COMPLETE, RrcMessage, ngap_from_bytes, rrc_from_bytes


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
