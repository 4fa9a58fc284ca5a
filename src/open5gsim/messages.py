"""Structured RRC and NG-AP messages with a canonical byte form.

Real ASN.1 encodings are out of scope; messages are small JSON documents
serialized with sorted keys so traces and digests are stable. Opaque blobs
(NAS payloads, security material) travel as hex strings inside the fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class RrcMessage:
    kind: str
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in RRC_KINDS:
            raise InvalidMessageError(f"unknown RRC kind {self.kind!r}")
        if self.kind == RRC_SETUP_COMPLETE and not self.fields.get("nas"):
            raise InvalidMessageError("RrcSetupComplete must carry a NAS payload")


@dataclass(frozen=True)
class NgapMessage:
    kind: str
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NGAP_KINDS:
            raise InvalidMessageError(f"unknown NGAP kind {self.kind!r}")


# json.dumps with these arguments builds the same encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(kind: str, fields: dict) -> bytes:
    return _ENCODER.encode({"kind": kind, "fields": fields}).encode()


def _decode(data: bytes) -> tuple[str, dict]:
    """The kind and fields of a canonical document; InvalidMessageError if malformed."""
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
