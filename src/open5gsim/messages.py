"""Structured RRC and NG-AP messages with a canonical byte form.

Real ASN.1 encodings are out of scope; messages are small JSON documents
serialized with sorted keys so traces and digests are stable. Opaque blobs
(NAS payloads, security material) travel as hex strings inside the fields.

Each kind whose fields are flat ints and strings has one `%` template of its
canonical document. The template writes only values whose JSON text is their
`%d` or `%s` text: a field dict of exactly its keys, each int of type `int`
(no bool, no `IntEnum`) and each string printable ASCII without `"` or `\\`.
Any other message, and every nested kind, goes through the JSON encoder,
which gives the same bytes where a template applies. Decoding runs the JSON
decoder's scanner on the text and takes its result only if the document
fills the text; otherwise `json.loads` decides, and words the error.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import InvalidMessageError

# RRC message kinds (initial-access call flow)
RRC_SETUP_REQUEST = "RrcSetupRequest"
RRC_SETUP = "RrcSetup"
RRC_SETUP_COMPLETE = "RrcSetupComplete"
RRC_SECURITY_MODE_COMMAND = "SecurityModeCommand"
RRC_SECURITY_MODE_COMPLETE = "SecurityModeComplete"
RRC_RECONFIGURATION = "RrcReconfiguration"
RRC_RECONFIGURATION_COMPLETE = "RrcReconfigurationComplete"

RRC_KINDS = frozenset(
    {
        RRC_SETUP_REQUEST,
        RRC_SETUP,
        RRC_SETUP_COMPLETE,
        RRC_SECURITY_MODE_COMMAND,
        RRC_SECURITY_MODE_COMPLETE,
        RRC_RECONFIGURATION,
        RRC_RECONFIGURATION_COMPLETE,
    }
)

# NG-AP message kinds
NGAP_INITIAL_UE_MESSAGE = "InitialUeMessage"
NGAP_INITIAL_CONTEXT_SETUP_REQUEST = "InitialContextSetupRequest"
NGAP_INITIAL_CONTEXT_SETUP_RESPONSE = "InitialContextSetupResponse"

NGAP_KINDS = frozenset(
    {
        NGAP_INITIAL_UE_MESSAGE,
        NGAP_INITIAL_CONTEXT_SETUP_REQUEST,
        NGAP_INITIAL_CONTEXT_SETUP_RESPONSE,
    }
)


class _Message(NamedTuple):
    """An RRC or NG-AP message. Each subclass checks its kind in `__new__` and
    builds the tuple once, with no per-field `object.__setattr__`."""

    kind: str
    fields: dict


class RrcMessage(_Message):
    __slots__ = ()

    def __new__(cls, kind: str, fields: dict | None = None):
        if kind not in RRC_KINDS:
            raise InvalidMessageError(f"unknown RRC kind {kind!r}")
        fields = {} if fields is None else fields  # a new dict per message
        if kind == RRC_SETUP_COMPLETE and not fields.get("nas"):
            raise InvalidMessageError("RrcSetupComplete must carry a NAS payload")
        return tuple.__new__(cls, (kind, fields))


class NgapMessage(_Message):
    __slots__ = ()

    def __new__(cls, kind: str, fields: dict | None = None):
        if kind not in NGAP_KINDS:
            raise InvalidMessageError(f"unknown NGAP kind {kind!r}")
        return tuple.__new__(cls, (kind, {} if fields is None else fields))


# json.dumps with these arguments builds the same encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_SCAN = json.JSONDecoder().scan_once

# The field types of each flat kind, by name in sorted order
_FLAT_FIELDS = {
    RRC_SETUP_REQUEST: {"ue_tmp_id": int},
    RRC_SETUP: {"crnti": int, "srb1_bearer": int},
    RRC_SETUP_COMPLETE: {"nas": str},
    RRC_SECURITY_MODE_COMMAND: {"security_info": str},
    RRC_SECURITY_MODE_COMPLETE: {},
    RRC_RECONFIGURATION_COMPLETE: {},
    NGAP_INITIAL_UE_MESSAGE: {"nas": str, "ue_tmp_id": int},
}


def _template(kind: str, types: dict) -> str:
    """The canonical document of a flat kind, with a %(name)d or "%(name)s" per field."""
    slots = [f'"{name}":%({name})d' if cls is int else f'"{name}":"%({name})s"' for name, cls in types.items()]
    return '{"fields":{%s},"kind":"%s"}' % (",".join(slots), kind)


_TEMPLATES = {kind: (_template(kind, types), types) for kind, types in _FLAT_FIELDS.items()}


def _canonical(kind: str, fields: dict) -> bytes:
    template = _TEMPLATES.get(kind)
    if template is not None and type(fields) is dict and fields.keys() == template[1].keys():
        for name, cls in template[1].items():
            value = fields[name]
            if type(value) is not cls:
                break
            if cls is str and not (value.isascii() and value.isprintable() and '"' not in value and "\\" not in value):
                break
        else:
            return (template[0] % fields).encode()
    return _ENCODER.encode({"kind": kind, "fields": fields}).encode()


def _decode(data: bytes) -> tuple[str, dict]:
    """The kind and fields of a canonical document; InvalidMessageError if malformed."""
    try:
        text = data.decode()
        doc, end = _SCAN(text, 0)
        whole = end == len(text)
    except (ValueError, StopIteration, RecursionError):
        whole = False
    if not whole:  # a BOM, whitespace or data around the document, or a fault: json.loads decides
        try:
            doc = json.loads(data.decode())
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, nesting too deep
            raise InvalidMessageError(f"undecodable message: {type(exc).__name__}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("kind"), str) and isinstance(doc.get("fields"), dict)):
        raise InvalidMessageError("message is not an object with a string kind and object fields")
    return doc["kind"], doc["fields"]


def rrc_to_bytes(msg: RrcMessage) -> bytes:
    return _canonical(msg.kind, msg.fields)


def rrc_from_bytes(data: bytes) -> RrcMessage:
    return RrcMessage(*_decode(data))


def ngap_to_bytes(msg: NgapMessage) -> bytes:
    return _canonical(msg.kind, msg.fields)


def ngap_from_bytes(data: bytes) -> NgapMessage:
    return NgapMessage(*_decode(data))
