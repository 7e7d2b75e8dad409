"""Exception hierarchy for the ident++ reproduction.

Every package in :mod:`repro` raises exceptions derived from
:class:`ReproError` so that callers can catch library errors without
accidentally swallowing programming errors (``TypeError``, ``KeyError``
and friends are never used to signal library-level failures).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Network simulator
# ---------------------------------------------------------------------------

class NetSimError(ReproError):
    """Base class for discrete-event network simulator errors."""


class AddressError(NetSimError):
    """An IPv4 or MAC address (or prefix) could not be parsed or is invalid."""


class TopologyError(NetSimError):
    """The topology is malformed (unknown node, duplicate link, no path, ...)."""


class PortError(NetSimError):
    """A node port is unknown, already wired, or otherwise unusable."""


class SimulationError(NetSimError):
    """The event scheduler was used incorrectly (time travel, re-run, ...)."""


class PacketError(NetSimError):
    """A packet is malformed or cannot be (de)serialised."""


# ---------------------------------------------------------------------------
# OpenFlow substrate
# ---------------------------------------------------------------------------

class OpenFlowError(ReproError):
    """Base class for OpenFlow substrate errors."""


class MatchError(OpenFlowError):
    """An OpenFlow match structure is invalid."""


class FlowTableError(OpenFlowError):
    """A flow-table operation failed (duplicate entry, bad priority, ...)."""


class ChannelError(OpenFlowError):
    """The switch-to-controller channel is down or misused."""


# ---------------------------------------------------------------------------
# End-host substrate
# ---------------------------------------------------------------------------

class HostError(ReproError):
    """Base class for end-host model errors."""


class UserError(HostError):
    """Unknown user or group, or an invalid account operation."""


class ProcessError(HostError):
    """Unknown process, or an invalid process-table operation."""


class SocketError(HostError):
    """A socket could not be bound, connected or looked up."""


# ---------------------------------------------------------------------------
# ident++ protocol
# ---------------------------------------------------------------------------

class IdentPPError(ReproError):
    """Base class for ident++ protocol errors."""


class WireFormatError(IdentPPError):
    """An ident++ query or response packet could not be parsed."""


class DaemonConfigError(IdentPPError):
    """An ident++ daemon configuration file (``@app`` blocks) is malformed."""


class QueryError(IdentPPError):
    """An ident++ query failed (timeout, no daemon, refused)."""


# ---------------------------------------------------------------------------
# PF+=2 policy language
# ---------------------------------------------------------------------------

class PFError(ReproError):
    """Base class for PF+=2 policy-language errors."""


class PFLexError(PFError):
    """The PF+=2 lexer hit an unexpected character."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(message)
        self.line = line
        self.column = column


class PFParseError(PFError):
    """The PF+=2 parser hit an unexpected token."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(message)
        self.line = line


class PFEvalError(PFError):
    """A PF+=2 rule could not be evaluated (unknown function, bad table, ...)."""


class UnknownFunctionError(PFEvalError):
    """A ``with``-predicate referenced a function that was never registered."""


# ---------------------------------------------------------------------------
# Crypto substrate
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for signature/crypto substrate errors."""


class KeyError_(CryptoError):
    """A key is malformed or missing from a key store."""


class SignatureError(CryptoError):
    """A signature failed to verify or could not be produced."""


# ---------------------------------------------------------------------------
# Core controller
# ---------------------------------------------------------------------------

class ControllerError(ReproError):
    """Base class for ident++ controller errors."""


class PolicyError(ControllerError):
    """The controller's policy configuration is invalid."""


class DelegationError(ControllerError):
    """A delegation grant/revocation is invalid or violated."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class WorkloadError(ReproError):
    """A workload/scenario could not be generated."""
