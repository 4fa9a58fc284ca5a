"""Error hierarchy shared across the simulator.

Every protocol-visible error carries a numeric code so data-plane nodes can
report it inside an ERROR message without string coupling.
"""

# Wire-level decode errors
CODE_TRUNCATED = 1
CODE_BAD_VERSION = 2
CODE_UNKNOWN_TYPE = 3
CODE_MALFORMED_TLV = 4
CODE_INVALID_MESSAGE = 5

# Port/flow apply errors
CODE_DUPLICATE_PORT = 6
CODE_UNKNOWN_PORT = 7
CODE_DUPLICATE_BEARER = 8
CODE_UNKNOWN_OUT_PORT = 9
CODE_DUPLICATE_ENTRY = 10
CODE_UNSUPPORTED_LAYER = 11

# Encapsulation errors
CODE_BAD_GTPU_FLAGS = 12
CODE_BAD_SIG_FLAGS = 13

class Open5GError(Exception):
    """Base for all protocol errors with a wire-reportable code."""

    code = 0


class WireDecodeError(Open5GError):
    """A byte sequence could not be decoded."""


class TruncatedError(WireDecodeError):
    code = CODE_TRUNCATED


class BadVersionError(WireDecodeError):
    code = CODE_BAD_VERSION


class UnknownTypeError(WireDecodeError):
    code = CODE_UNKNOWN_TYPE


class MalformedTlvError(WireDecodeError):
    code = CODE_MALFORMED_TLV


class InvalidMessageError(Open5GError):
    """A message violates a structural invariant and cannot be encoded."""

    code = CODE_INVALID_MESSAGE


class BadGtpuFlagsError(WireDecodeError):
    code = CODE_BAD_GTPU_FLAGS


class BadSigFlagsError(WireDecodeError):
    code = CODE_BAD_SIG_FLAGS


class SwitchApplyError(Open5GError):
    """A valid command could not be applied to port/table state."""


class DuplicatePortError(SwitchApplyError):
    code = CODE_DUPLICATE_PORT


class UnknownPortError(SwitchApplyError):
    code = CODE_UNKNOWN_PORT


class DuplicateBearerError(SwitchApplyError):
    code = CODE_DUPLICATE_BEARER


class UnknownOutPortError(SwitchApplyError):
    code = CODE_UNKNOWN_OUT_PORT


class DuplicateEntryError(SwitchApplyError):
    code = CODE_DUPLICATE_ENTRY


class UnsupportedLayerError(SwitchApplyError):
    code = CODE_UNSUPPORTED_LAYER


# Controller-side errors (never put on the wire)


class ControllerError(Exception):
    pass


class AlreadyBootstrappedError(ControllerError):
    pass


class UnknownTunnelError(ControllerError):
    pass


class UnknownUeError(ControllerError):
    pass


class ProtocolViolationError(ControllerError):
    """An RRC message arrived in a state where it is illegal."""


class InvalidSessionError(ControllerError):
    """A QoS flow references a DRB absent from its session."""


# Simulation errors


class SimulationError(Exception):
    pass


class ScriptError(SimulationError):
    pass


class NotIdleError(SimulationError):
    pass


class BudgetExceededError(SimulationError):
    pass


def quoted(text: str) -> str:
    """The repr of `text` for an error message: whole up to 80 characters,
    else its first 80 and its length, so that a huge input gives a short error."""
    return repr(text) if len(text) <= 80 else f"{text[:80]!r}... ({len(text)} characters)"
