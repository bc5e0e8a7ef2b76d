"""Exception hierarchy for the SOR reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at a subsystem boundary while still
being able to distinguish failure modes when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad range, wrong type, empty input)."""


class ConfigurationError(ReproError):
    """A component was configured inconsistently (e.g. duplicate provider)."""


class DatabaseError(ReproError):
    """Raised by the mini relational database substrate."""


class RecoveryError(DatabaseError):
    """Durable state on disk is corrupted beyond what recovery tolerates."""


class SimulatedCrashError(ReproError):
    """An armed crash-injection hook fired (see :mod:`repro.sim.faults`).

    Deliberately *not* a :class:`TransportError`: a simulated kill must
    tear the whole process down in the harness, not be absorbed by a
    retry loop on the request path.
    """


class CodecError(ReproError):
    """Raised when encoding or decoding a binary message body fails."""


class TransportError(ReproError):
    """Raised by the simulated network transport (drops, unknown endpoints)."""


class DeadlineExceededError(TransportError):
    """A resilient send ran out of its per-request deadline."""


class CircuitOpenError(TransportError):
    """A resilient send was rejected because the host's circuit is open."""


class ServerBusyError(TransportError):
    """The server refused the request at admission (HTTP 503, BUSY envelope).

    A :class:`TransportError` on purpose: the resilient client's retry
    loop treats an overloaded server exactly like a lossy link — back
    off with jitter and try again — which is the system's backpressure
    contract.
    """


class BarcodeError(ReproError):
    """Raised when a 2D barcode cannot be encoded or decoded."""


class ScriptError(ReproError):
    """Base class for LuaLite scripting errors."""


class ScriptSyntaxError(ScriptError):
    """The script failed to lex or parse."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScriptRuntimeError(ScriptError):
    """The script failed during interpretation."""


class ScriptSecurityError(ScriptError):
    """The script attempted to call a function outside the whitelist."""


class SensorError(ReproError):
    """Raised by sensor providers (unknown sensor, acquisition timeout)."""


class SensorTimeoutError(SensorError):
    """Data acquisition did not complete before its deadline."""


class SchedulingError(ReproError):
    """Raised by the sensing scheduler (infeasible request, bad period)."""


class KernelValidationError(SchedulingError):
    """A coverage kernel returned an out-of-range probability.

    Off the diagonal (distance > 0) probabilities must lie in [0, 1):
    a probability of exactly 1 at nonzero distance makes the log-space
    survival state ``log1p(-p) = -inf`` and silently poisons every
    objective value downstream, so the build rejects it up front, naming
    the kernel and the offending distance.
    """


class RankingError(ReproError):
    """Raised by the personalizable ranking pipeline."""


class ParticipationError(ReproError):
    """Raised by the participation manager (location check failed, etc.)."""


class ObservabilityError(ReproError):
    """Raised by the metrics/tracing subsystem (bad metric name, misuse)."""


class AblationError(ReproError):
    """Raised by the ablation harness (unknown switch, broken equivalence)."""
