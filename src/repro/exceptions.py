"""Exception hierarchy for the repro package.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class. The two subclasses that benchmark harnesses care about
are :class:`IOBudgetExceeded` (a run used more block I/Os than allowed, the
simulation analogue of the paper's 24-hour "INF" cutoff) and
:class:`NonTermination` (the EM-SCC baseline detected that it cannot make
progress, the paper's Case-1/Case-2).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IOBudgetExceeded(ReproError):
    """Raised when a run exceeds its block-I/O budget.

    The paper reports runs that do not finish within 24 hours as ``INF``.
    In the simulated I/O model the equivalent cutoff is a cap on the total
    number of block I/Os; crossing it raises this exception, which the
    benchmark harness renders as ``INF``.
    """

    def __init__(self, used: int, budget: int) -> None:
        super().__init__(f"I/O budget exceeded: used {used} block I/Os, budget {budget}")
        self.used = used
        self.budget = budget


class NonTermination(ReproError):
    """Raised when an algorithm detects it cannot terminate.

    The EM-SCC baseline [13] contracts partition-local SCCs until the graph
    fits in memory; on DAG-like graphs or graphs whose SCCs straddle every
    partitioning (the paper's Case-2 and Case-1) no progress is possible and
    the loop would run forever.  We detect a full pass with no contraction
    and raise this instead.
    """


class InsufficientMemory(ReproError):
    """Raised when an algorithm's minimum memory requirement is not met.

    For example the semi-external solvers need ``c * |V|`` bytes plus one
    block; calling them with a smaller :class:`~repro.io.memory.MemoryBudget`
    raises this.
    """


class StorageError(ReproError):
    """Raised on misuse of the simulated block device (missing file, write
    after close, record wider than a block, ...)."""


class EdgeListFormatError(ReproError, ValueError):
    """An edge-list input file is malformed: a line that is not two node
    ids, a token that is not a non-negative integer, an id outside the
    4-byte range the I/O accounting assumes, or a truncated binary record.

    The message names the file and line (or byte offset) and the bad
    token.  Also a :class:`ValueError`, the error the readers raised
    before this type existed.
    """


class SimulatedCrash(ReproError):
    """Raised by a :class:`~repro.recovery.fault.FaultInjector` at its
    scheduled block-I/O ordinal or phase.

    A simulated power loss: the interrupted operation is *not* charged to
    the I/O ledger (the machine died before it completed), and with
    ``torn=True`` the interrupted write leaves a detectable half-written
    block behind.
    """

    def __init__(self, ordinal: int, phase: "str | None" = None) -> None:
        where = f" in phase {phase!r}" if phase else ""
        super().__init__(f"simulated crash at block I/O #{ordinal}{where}")
        self.ordinal = ordinal
        self.phase = phase


class CorruptBlockError(StorageError):
    """A block's content does not match its checksum (e.g. a torn write).

    Carries the file name and block index so recovery code can report —
    and discard — exactly the damaged region.
    """

    def __init__(self, name: str, index: int) -> None:
        super().__init__(f"block {index} of {name!r} fails its checksum")
        self.name = name
        self.index = index


class TransientIOError(StorageError):
    """A block operation failed transiently (the simulated ``EIO``).

    Raised by a :class:`~repro.recovery.fault.FaultSchedule` on a scheduled
    read or write; the operation succeeds when retried enough times.  The
    device's retry loop (governed by a
    :class:`~repro.recovery.policy.FaultPolicy`) absorbs these; user code
    only sees one if no policy is attached or after retries are exhausted
    (wrapped in :class:`RetryExhaustedError`).
    """

    def __init__(self, message: str, *, attempt: int = 0) -> None:
        super().__init__(message)
        self.attempt = attempt


class ChannelOutageError(TransientIOError):
    """A whole stripe channel of a :class:`~repro.io.parallel.StripedDevice`
    is down for a scheduled window.

    Reads from the channel can be served degraded from parity (when the
    device has a parity channel); writes are retried until the outage
    window expires.
    """

    def __init__(self, channel: int, *, attempt: int = 0) -> None:
        super().__init__(f"stripe channel {channel} is down", attempt=attempt)
        self.channel = channel


class RetryExhaustedError(StorageError):
    """A transient fault persisted past the :class:`FaultPolicy` budget.

    Carries the number of attempts made and the last underlying error so
    callers (and the CLI's exit-code mapping) can report exactly what was
    retried and why the policy gave up.  This is the fail-fast escalation
    point: a checkpointed run that sees this should resume from the last
    durable checkpoint rather than keep hammering the device.
    """

    def __init__(self, attempts: int, last_error: Exception, *, reason: str = "") -> None:
        why = f" ({reason})" if reason else ""
        super().__init__(
            f"transient fault persisted after {attempts} attempt(s){why}: {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error
        self.reason = reason


class WorkerCrashError(ReproError):
    """A worker executing a pool task died or hung mid-task.

    Raised inside the task by a scheduled worker fault (``worker-die`` /
    ``worker-hang``), or built by the supervisor when a thread misses its
    per-task deadline.  The :class:`~repro.io.parallel.WorkerPool`
    supervisor catches it and re-dispatches the task (tasks are pure, so
    replay is safe).
    """

    def __init__(self, kind: str, detail: str = "") -> None:
        extra = f": {detail}" if detail else ""
        super().__init__(f"worker {kind}{extra}")
        self.kind = kind


class CheckpointError(ReproError):
    """The checkpoint journal cannot be used for the requested resume.

    Raised when the journal's recorded run parameters (block size, memory
    budget, config fingerprint, input file) disagree with the caller's, or
    when not even the journal header's files survive validation.
    """


class UnknownNodeError(ReproError):
    """A query named a node the label store has never seen.

    The query service distinguishes this from a *reachability* miss: an
    unknown node is a client error (exit code / error response), while an
    unreachable pair is a normal ``False`` answer.
    """

    def __init__(self, node: int) -> None:
        super().__init__(f"node {node} is not in the label store")
        self.node = node


class UnknownSessionError(ReproError):
    """A service request referenced a session id that is not open."""

    def __init__(self, session_id: str) -> None:
        super().__init__(f"no open session {session_id!r}")
        self.session_id = session_id


class ServiceProtocolError(ReproError):
    """The query daemon rejected a malformed or unsupported request, or
    the thin client received a response it cannot interpret."""
