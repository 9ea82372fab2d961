"""Round-, message-, bit-complexity and fan-in accounting.

These are exactly the figures of merit from Section 2 of the paper:

* **round-complexity** — number of synchronous rounds;
* **message-complexity** — messages sent per node *on average*;
* **bit-complexity** — total bits over all messages;
* **fan-in** ``Delta`` — the maximum number of communications any single
  node participates in within one round (Section 7).

Accounting conventions
----------------------
A ``PUSH`` costs one message of its payload size.  A ``PULL`` costs one
*response* message (of the response payload size) whenever the responder has
something to answer; the request itself is free, matching how Karp et
al. [10] and this paper count *transmissions* of content.  Requests are
still tallied separately (``pull_requests``) and contribute to fan-in.

Metrics are grouped into named *phases* (e.g. ``grow``, ``square``,
``pull``) via :meth:`Metrics.phase`, so tests and benchmarks can check the
paper's per-phase budgets (Lemmas 11-13).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class PhaseStats:
    """Counters for one named phase of an execution."""

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    pushes: int = 0
    pull_responses: int = 0
    pull_requests: int = 0
    max_fanin: int = 0
    max_initiations: int = 0
    #: Wall-clock spent inside this phase's :meth:`Metrics.phase` blocks,
    #: in milliseconds.  Stays 0.0 unless a telemetry span recorder is
    #: attached (``Metrics.span_recorder``) — simulated-round complexity
    #: never depends on it.
    wall_ms: float = 0.0


@dataclass
class Metrics:
    """Global accounting for one simulated execution.

    Attributes
    ----------
    n:
        Network size, used to normalise per-node figures.
    total:
        Aggregate counters over the whole execution.
    phases:
        Ordered per-phase counters.  Rounds executed outside any
        :meth:`phase` block land in the ``"(unphased)"`` bucket.
    """

    n: int
    total: PhaseStats = field(default_factory=PhaseStats)
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: Per-task error trajectory: ``(round, error)`` samples recorded by
    #: task transports after each committed round (empty for the plain
    #: broadcast path).  The error semantics are the task's — max relative
    #: error for push-sum, missing-content fraction for dissemination.
    error_series: List["tuple[int, float]"] = field(default_factory=list)
    #: When telemetry is attached, a :class:`repro.obs.spans.SpanRecorder`
    #: that :meth:`phase` times its blocks into (filling ``wall_ms``).
    #: ``None`` (the default) keeps :meth:`phase` free of any clock calls.
    span_recorder: Optional[object] = None
    _phase_stack: List[str] = field(default_factory=list)

    UNPHASED = "(unphased)"

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStats]:
        """Attribute all rounds inside the block to phase ``name``.

        Phases may repeat (stats accumulate) but not nest: nesting would
        make the per-phase round counts ambiguous.
        """
        if self._phase_stack:
            raise RuntimeError(
                f"phase {name!r} opened inside phase {self._phase_stack[-1]!r}; "
                "phases must not nest"
            )
        stats = self.phases.setdefault(name, PhaseStats())
        self._phase_stack.append(name)
        recorder = self.span_recorder
        token = recorder.begin(f"phase:{name}") if recorder is not None else None
        try:
            yield stats
        finally:
            if token is not None:
                elapsed = recorder.end(token)
                stats.wall_ms += elapsed
                self.total.wall_ms += elapsed
            self._phase_stack.pop()

    def current_phase(self) -> PhaseStats:
        """The phase bucket that the next round should be charged to."""
        if self._phase_stack:
            return self.phases[self._phase_stack[-1]]
        return self.phases.setdefault(self.UNPHASED, PhaseStats())

    # ------------------------------------------------------------------
    # Recording (called by the engine)
    # ------------------------------------------------------------------

    def record_round(
        self,
        *,
        pushes: int,
        push_bits: int,
        pull_requests: int,
        pull_responses: int,
        pull_bits: int,
        max_fanin: int,
        max_initiations: int,
    ) -> None:
        """Record one committed synchronous round."""
        for bucket in (self.total, self.current_phase()):
            bucket.rounds += 1
            bucket.pushes += pushes
            bucket.pull_requests += pull_requests
            bucket.pull_responses += pull_responses
            bucket.messages += pushes + pull_responses
            bucket.bits += push_bits + pull_bits
            bucket.max_fanin = max(bucket.max_fanin, max_fanin)
            bucket.max_initiations = max(bucket.max_initiations, max_initiations)

    def record_error(self, error: float) -> None:
        """Append one ``(round, error)`` sample to the task error series."""
        self.error_series.append((self.rounds, float(error)))

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------

    @property
    def rounds(self) -> int:
        """Total round-complexity."""
        return self.total.rounds

    @property
    def messages(self) -> int:
        """Total number of (content-carrying) messages."""
        return self.total.messages

    @property
    def bits(self) -> int:
        """Total bit-complexity."""
        return self.total.bits

    @property
    def max_fanin(self) -> int:
        """Largest per-round fan-in Delta observed at any node."""
        return self.total.max_fanin

    def messages_per_node(self) -> float:
        """Average messages per node — the paper's message-complexity."""
        return self.messages / self.n

    def bits_per_node(self) -> float:
        """Average bits per node."""
        return self.bits / self.n

    def phase_report(self) -> str:
        """Human-readable per-phase table (used by examples and the CLI).

        The ``wall ms`` column shows an em-dash when no span recorder
        timed the phase (telemetry off).
        """

        def wall(st: PhaseStats) -> str:
            return f"{st.wall_ms:>10.1f}" if st.wall_ms else f"{'—':>10}"

        header = (
            f"{'phase':<22}{'rounds':>7}{'msgs':>10}{'msgs/node':>11}"
            f"{'bits':>13}{'maxΔ':>7}{'wall ms':>10}"
        )
        lines = [header, "-" * len(header)]
        for name, st in self.phases.items():
            lines.append(
                f"{name:<22}{st.rounds:>7}{st.messages:>10}"
                f"{st.messages / self.n:>11.3f}{st.bits:>13}{st.max_fanin:>7}"
                f"{wall(st)}"
            )
        st = self.total
        lines.append("-" * len(header))
        lines.append(
            f"{'TOTAL':<22}{st.rounds:>7}{st.messages:>10}"
            f"{st.messages / self.n:>11.3f}{st.bits:>13}{st.max_fanin:>7}"
            f"{wall(st)}"
        )
        return "\n".join(lines)
