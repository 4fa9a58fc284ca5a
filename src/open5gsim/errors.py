"""Error hierarchy shared across the simulator.

Every protocol-visible error carries a numeric code so data-plane nodes can
report it inside an ERROR message without string coupling: 1-5 for wire
decode errors, 6-11 for port and flow apply errors, 12-13 for encapsulations.
"""


class Open5GError(Exception):
    """Base for all protocol errors with a wire-reportable code."""

    code = 0


class WireDecodeError(Open5GError):
    """A byte sequence could not be decoded."""


class TruncatedError(WireDecodeError):
    code = 1


class BadVersionError(WireDecodeError):
    code = 2


class UnknownTypeError(WireDecodeError):
    code = 3


class MalformedTlvError(WireDecodeError):
    code = 4


class InvalidMessageError(Open5GError):
    """A message violates a structural invariant and cannot be encoded."""

    code = 5


class BadGtpuFlagsError(WireDecodeError):
    code = 12


class BadSigFlagsError(WireDecodeError):
    code = 13


class SwitchApplyError(Open5GError):
    """A valid command could not be applied to port/table state."""


class DuplicatePortError(SwitchApplyError):
    code = 6


class UnknownPortError(SwitchApplyError):
    code = 7


class DuplicateBearerError(SwitchApplyError):
    code = 8


class UnknownOutPortError(SwitchApplyError):
    code = 9


class DuplicateEntryError(SwitchApplyError):
    code = 10


class UnsupportedLayerError(SwitchApplyError):
    code = 11


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


def quoted(text: object) -> str:
    """The repr of `text` (of its str() if it is no string) for an error message: whole
    up to 80 characters, else its first 80 and its length, so that a huge input gives a short error."""
    text = text if isinstance(text, str) else str(text)
    return repr(text) if len(text) <= 80 else f"{text[:80]!r}... ({len(text)} characters)"
