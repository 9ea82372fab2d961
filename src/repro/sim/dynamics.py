"""Dynamic adversity: per-round churn, message loss, and fault timelines.

The paper's fault model (Section 8) is *static*: an oblivious adversary
fails ``F`` nodes before the execution starts, and failed nodes neither
initiate nor respond for the whole run (:mod:`repro.sim.failures`).  This
module generalises that to a *timeline* of adversity driven through the
round engine:

* :class:`CrashAt` — crash a node set at the start of round ``t``;
* :class:`CrashTrickle` — a Bernoulli/Poisson trickle of crashes each round;
* :class:`ReviveAt` — revive (re-join) previously crashed nodes;
* :class:`MessageLoss` — drop each delivered message i.i.d. with
  probability ``p`` inside a round window;
* :class:`Blackout` — a node set is unreachable for a round window and
  comes back afterwards.

Departures from the paper's Section 8 adversary, stated precisely:

1. **Timing** — events fire at the *opening* of their round, before any
   operation of that round is declared.  A node crashed at round ``t``
   therefore neither initiates, responds, nor receives (no fan-in charge)
   at any round ``>= t``; the paper's adversary only acts at ``t = 0``.
2. **Obliviousness** — the timeline is fixed before the execution and its
   randomness comes from a dedicated seed stream, independent of the
   algorithm's coins, so the adversary remains oblivious in the paper's
   sense even though it acts mid-run.
3. **Victim pools** — mid-run crash/blackout events select victims among
   the *currently alive* nodes (the static patterns in
   :mod:`repro.sim.failures` select over all ``n``), and always leave at
   least one node alive.
4. **Message loss** — the paper's model delivers every message between
   live nodes.  Here a push is *charged* when sent (the bits crossed the
   wire) but may be lost before delivery; a pull succeeds only when both
   the request and the response legs survive, so its success probability
   under loss ``p`` is ``(1-p)^2``.  Lost requests never reach the
   responder, so they contribute neither fan-in nor a charged response.
5. **Revival** — revived nodes are alive again but remember nothing new:
   whether they count as informed is the algorithm's business (none of the
   shipped algorithms re-inform a node retroactively), which is exactly
   the late-joiner catch-up problem the robustness scenarios measure.

Schedules are declarative, frozen, and **picklable**, so they ride inside
:class:`repro.analysis.runner.RunSpec` jobs through the parallel executor
with the same bit-identical-for-any-worker-count guarantee as every other
knob.  An empty schedule binds to nothing: ``broadcast()`` skips the
driver entirely and the engine's zero-adversity path is byte-for-byte the
static engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.catalogue import Catalogue
from repro.sim.network import Network

__all__ = [
    "AdversitySchedule",
    "Blackout",
    "CrashAt",
    "CrashTrickle",
    "DynamicsDriver",
    "MessageLoss",
    "ReviveAt",
    "SCHEDULES",
    "get_schedule",
    "parse_schedule",
    "register_schedule",
    "resolve_schedule",
    "schedule_names",
]


# ----------------------------------------------------------------------
# Event specs (frozen, picklable)
# ----------------------------------------------------------------------

Count = Union[int, float]  #: an absolute count (int >= 1) or a fraction in (0, 1)

#: Victim-selection patterns for mid-run events (applied to *alive* nodes).
EVENT_PATTERNS = ("random", "prefix", "smallest-uids")


def _check_count(count: Optional[Count], indices: Optional[Tuple[int, ...]], what: str) -> None:
    if (count is None) == (indices is None):
        raise ValueError(f"{what}: give exactly one of count= or indices=")
    if count is not None and count < 0:
        raise ValueError(f"{what}: count must be non-negative, got {count}")


def _check_window(start: int, stop: Optional[int], what: str) -> None:
    if start < 0:
        raise ValueError(f"{what}: start round must be non-negative, got {start}")
    if stop is not None and stop <= start:
        raise ValueError(f"{what}: stop ({stop}) must be after start ({start})")


def _check_pattern(pattern: str, what: str) -> None:
    if pattern not in EVENT_PATTERNS:
        raise ValueError(
            f"{what}: unknown victim pattern {pattern!r}; "
            f"choose from {sorted(EVENT_PATTERNS)}"
        )


@dataclass(frozen=True)
class CrashAt:
    """Crash ``count`` nodes (or the explicit ``indices``) at round ``round``.

    ``count`` may be a fraction in (0, 1) of the then-alive population.
    Victims are drawn from the alive nodes by ``pattern``; at least one
    node always survives.
    """

    round: int
    count: Optional[Count] = None
    indices: Optional[Tuple[int, ...]] = None
    pattern: str = "random"

    def __post_init__(self) -> None:
        _check_window(self.round, None, "CrashAt")
        _check_count(self.count, self.indices, "CrashAt")
        _check_pattern(self.pattern, "CrashAt")


@dataclass(frozen=True)
class ReviveAt:
    """Revive ``count`` crashed nodes (or the explicit ``indices``) at
    round ``round`` — the late-joiner / re-join side of churn.

    Nodes inside an open :class:`Blackout` window belong to that window
    and are not eligible; they come back when their blackout closes.
    """

    round: int
    count: Optional[Count] = None
    indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_window(self.round, None, "ReviveAt")
        _check_count(self.count, self.indices, "ReviveAt")


@dataclass(frozen=True)
class CrashTrickle:
    """Crash a random trickle of alive nodes every round in ``[start, stop)``.

    ``kind="bernoulli"``: each alive node crashes i.i.d. with probability
    ``rate`` per round.  ``kind="poisson"``: ``Poisson(rate)`` uniformly
    random alive nodes crash per round.  ``stop=None`` means forever.
    """

    rate: float
    kind: str = "bernoulli"
    start: int = 0
    stop: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop, "CrashTrickle")
        if self.kind not in ("bernoulli", "poisson"):
            raise ValueError(
                f"CrashTrickle: kind must be 'bernoulli' or 'poisson', got {self.kind!r}"
            )
        if self.rate < 0 or (self.kind == "bernoulli" and self.rate >= 1):
            raise ValueError(f"CrashTrickle: bad rate {self.rate}")


@dataclass(frozen=True)
class MessageLoss:
    """Drop each delivered message i.i.d. with probability ``p`` during
    rounds ``[start, stop)`` (``stop=None`` = forever).  Overlapping loss
    windows compound: the round's drop probability is
    ``1 - prod(1 - p_i)``."""

    p: float
    start: int = 0
    stop: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop, "MessageLoss")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"MessageLoss: p must be in [0, 1), got {self.p}")


@dataclass(frozen=True)
class Blackout:
    """A node set is unreachable during rounds ``[start, stop)``.

    Victims are picked among the alive nodes when the window opens and
    revived when it closes (their algorithm state is whatever it was —
    blacked-out nodes simply miss every round of the window).
    """

    start: int
    stop: int
    count: Optional[Count] = None
    indices: Optional[Tuple[int, ...]] = None
    pattern: str = "random"

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop, "Blackout")
        _check_count(self.count, self.indices, "Blackout")
        _check_pattern(self.pattern, "Blackout")


Event = Union[CrashAt, ReviveAt, CrashTrickle, MessageLoss, Blackout]

_EVENT_TYPES = (CrashAt, ReviveAt, CrashTrickle, MessageLoss, Blackout)


@dataclass(frozen=True)
class AdversitySchedule:
    """A composable timeline of adversity events.

    Frozen and picklable: it travels inside
    :class:`~repro.analysis.runner.RunSpec` through the process-pool
    executor.  Bind it to a live network with :meth:`bind`; an empty
    schedule should not be bound at all (``broadcast()`` skips it, keeping
    the zero-adversity engine path untouched).
    """

    events: Tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        for ev in self.events:
            if not isinstance(ev, _EVENT_TYPES):
                raise TypeError(
                    f"AdversitySchedule: {ev!r} is not an adversity event"
                )

    @property
    def is_empty(self) -> bool:
        return not self.events

    def bind(self, net: Network, rng: np.random.Generator) -> "DynamicsDriver":
        """Compile the timeline against a live network."""
        return DynamicsDriver(self, net, rng)

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.is_empty:
            return "(no adversity)"
        return ", ".join(_describe_event(ev) for ev in self.events)


def _describe_event(ev: Event) -> str:
    if isinstance(ev, CrashAt):
        who = f"{len(ev.indices)} nodes" if ev.indices is not None else _fmt_count(ev.count)
        return f"crash {who} @r{ev.round} ({ev.pattern})"
    if isinstance(ev, ReviveAt):
        who = f"{len(ev.indices)} nodes" if ev.indices is not None else _fmt_count(ev.count)
        return f"revive {who} @r{ev.round}"
    if isinstance(ev, CrashTrickle):
        return f"{ev.kind} trickle rate={ev.rate:g} {_fmt_window(ev.start, ev.stop)}"
    if isinstance(ev, MessageLoss):
        return f"loss p={ev.p:g} {_fmt_window(ev.start, ev.stop)}"
    if isinstance(ev, Blackout):
        who = f"{len(ev.indices)} nodes" if ev.indices is not None else _fmt_count(ev.count)
        return f"blackout {who} r{ev.start}-{ev.stop}"
    return repr(ev)


def _fmt_count(count: Optional[Count]) -> str:
    if count is None:
        return "?"
    if isinstance(count, float) and 0 < count < 1:
        return f"{count:.1%}"
    return f"{int(count)} nodes"


def _fmt_window(start: int, stop: Optional[int]) -> str:
    return f"r{start}+" if stop is None else f"r{start}-{stop}"


# ----------------------------------------------------------------------
# The runtime driver
# ----------------------------------------------------------------------


class DynamicsDriver:
    """Applies an :class:`AdversitySchedule` to a network, round by round.

    The engine calls :meth:`begin_round` when a round opens (round index =
    committed rounds so far) and, while a loss window is active, asks for
    vectorised survival masks — **one RNG draw per bulk op**, never a
    per-message Python loop.  All randomness comes from the dedicated
    ``rng`` handed to :meth:`AdversitySchedule.bind`, so the algorithm's
    coin flips are untouched by any schedule.
    """

    def __init__(
        self, schedule: AdversitySchedule, net: Network, rng: np.random.Generator
    ) -> None:
        self.schedule = schedule
        self.net = net
        self.rng = rng
        self._round = -1
        self._loss_p = 0.0
        self._crashes: Dict[int, List[CrashAt]] = {}
        self._revives: Dict[int, List[ReviveAt]] = {}
        self._trickles: List[CrashTrickle] = []
        self._losses: List[MessageLoss] = []
        self._blackouts: List[Blackout] = []
        #: per-Blackout victims (parallel to ``_blackouts``), filled at open
        self._blackout_downed: List[Optional[np.ndarray]] = []
        for ev in schedule.events:
            if isinstance(ev, CrashAt):
                self._crashes.setdefault(ev.round, []).append(ev)
            elif isinstance(ev, ReviveAt):
                self._revives.setdefault(ev.round, []).append(ev)
            elif isinstance(ev, CrashTrickle):
                self._trickles.append(ev)
            elif isinstance(ev, MessageLoss):
                self._losses.append(ev)
            elif isinstance(ev, Blackout):
                self._blackouts.append(ev)
                self._blackout_downed.append(None)
        #: Nodes currently inside a blackout window: owned by their
        #: blackout, off-limits to ReviveAt until the window closes.
        self._blacked_out = np.zeros(net.n, dtype=bool)
        # Tallies for reports (cheap, scalar, ride in record extras).
        self.crashed_total = 0
        self.revived_total = 0
        self.messages_lost = 0

    # -- round transitions ---------------------------------------------

    def begin_round(self, round_index: int) -> None:
        """Apply every transition scheduled up to ``round_index``.

        Idempotent per round index: re-opening the same index (an aborted,
        uncommitted round) fires nothing twice.
        """
        while self._round < round_index:
            self._round += 1
            self._step(self._round)
        self._loss_p = self._loss_for(round_index)

    def _step(self, r: int) -> None:
        # Order within a round: blackout restores, scheduled revives,
        # scheduled crashes, trickle crashes, blackout opens.  The order is
        # fixed by type (not list order) so equal schedules written in any
        # event order behave identically.
        for i, bo in enumerate(self._blackouts):
            if bo.stop == r and self._blackout_downed[i] is not None:
                downed = self._blackout_downed[i]
                self._blacked_out[downed] = False
                # Only nodes still dead come back (another event may have
                # independently crashed one of them via explicit indices).
                downed = downed[~self.net.alive[downed]]
                if len(downed):
                    self.net.revive(downed)
                    self.revived_total += len(downed)
                self._blackout_downed[i] = None
        for ev in self._revives.get(r, ()):
            self._apply_revive(ev)
        for ev in self._crashes.get(r, ()):
            self._crash(self._pick_victims(ev.count, ev.indices, ev.pattern))
        for tr in self._trickles:
            if tr.start <= r and (tr.stop is None or r < tr.stop):
                self._crash(self._trickle_victims(tr))
        for i, bo in enumerate(self._blackouts):
            if bo.start == r:
                victims = self._pick_victims(bo.count, bo.indices, bo.pattern)
                self._crash(victims)
                self._blackout_downed[i] = victims
                self._blacked_out[victims] = True

    def _loss_for(self, r: int) -> float:
        keep = 1.0
        for ev in self._losses:
            if ev.start <= r and (ev.stop is None or r < ev.stop):
                keep *= 1.0 - ev.p
        return 1.0 - keep

    # -- victim selection ----------------------------------------------

    def _pick_victims(
        self,
        count: Optional[Count],
        indices: Optional[Tuple[int, ...]],
        pattern: str = "random",
    ) -> np.ndarray:
        alive = self.net.alive_indices()
        if indices is not None:
            idx = np.asarray(indices, dtype=np.int64)
            if len(idx) and (idx.min() < 0 or idx.max() >= self.net.n):
                raise IndexError("adversity event index out of range")
            idx = idx[self.net.alive[idx]]  # already-dead victims are no-ops
            if len(idx) >= len(alive):  # always leave one node alive
                idx = idx[:-1]
            return idx
        k = self._resolve_count(count, len(alive))
        k = min(k, max(len(alive) - 1, 0))  # always leave one node alive
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        if pattern == "prefix":
            return alive[:k]
        if pattern == "smallest-uids":
            return alive[np.argsort(self.net.uid[alive], kind="stable")[:k]]
        # "random" — the only remaining pattern (validated at construction).
        return self.rng.choice(alive, size=k, replace=False)

    def _trickle_victims(self, tr: CrashTrickle) -> np.ndarray:
        alive = self.net.alive_indices()
        if len(alive) <= 1:
            return np.empty(0, dtype=np.int64)
        if tr.kind == "bernoulli":
            victims = alive[self.rng.random(len(alive)) < tr.rate]
        else:  # poisson
            k = min(int(self.rng.poisson(tr.rate)), len(alive))
            victims = self.rng.choice(alive, size=k, replace=False)
        if len(victims) >= len(alive):  # spare one survivor
            victims = victims[:-1]
        return victims

    @staticmethod
    def _resolve_count(count: Optional[Count], pool: int) -> int:
        if count is None:
            return 0
        if isinstance(count, float) and 0 < count < 1:
            return int(round(count * pool))
        return int(count)

    def _apply_revive(self, ev: ReviveAt) -> None:
        # Blacked-out nodes are owned by their blackout window: ReviveAt
        # only resurrects ordinarily crashed nodes.
        dead = np.flatnonzero(~self.net.alive & ~self._blacked_out)
        if ev.indices is not None:
            idx = np.asarray(ev.indices, dtype=np.int64)
            if len(idx) and (idx.min() < 0 or idx.max() >= self.net.n):
                raise IndexError("adversity event index out of range")
            idx = idx[~self.net.alive[idx] & ~self._blacked_out[idx]]
        else:
            k = min(self._resolve_count(ev.count, len(dead)), len(dead))
            idx = self.rng.choice(dead, size=k, replace=False) if k > 0 else dead[:0]
        if len(idx):
            self.net.revive(idx)
            self.revived_total += len(idx)

    def _crash(self, victims: np.ndarray) -> None:
        if len(victims):
            self.net.fail(victims)
            self.crashed_total += len(victims)

    # -- message-loss masks (one RNG draw per bulk op) ------------------

    @property
    def loss_p(self) -> float:
        """Drop probability in force for the currently open round."""
        return self._loss_p

    def push_survival(self, count: int) -> Optional[np.ndarray]:
        """Per-message survival mask for a bulk push, or ``None`` when no
        loss window is active (the caller then skips the mask entirely).

        The engine owns the ``messages_lost`` tally: only it knows which
        dropped messages were actually in transit to a live target.
        """
        p = self._loss_p
        if p <= 0.0 or count == 0:
            return None
        return self.rng.random(count) >= p

    def pull_survival(self, count: int) -> "Optional[Tuple[np.ndarray, np.ndarray]]":
        """``(request_arrived, round_trip_ok)`` masks for a bulk pull.

        One uniform draw per op gives the correctly coupled joint law:
        the request leg survives with probability ``1-p`` and the full
        round trip with ``(1-p)^2``, with ``round_trip_ok`` a subset of
        ``request_arrived``.  Returns ``None`` when no loss is active.
        The engine owns the ``messages_lost`` tally (see
        :meth:`push_survival`).
        """
        p = self._loss_p
        if p <= 0.0 or count == 0:
            return None
        u = self.rng.random(count)
        request_arrived = u < 1.0 - p
        round_trip_ok = u < (1.0 - p) ** 2
        return request_arrived, round_trip_ok

    def summary(self) -> Dict[str, float]:
        """Scalar tallies for report extras.  ``dyn_messages_lost`` counts
        transmissions lost *in transit to a live target*: pushes, pull
        requests, and pull responses lost on the return leg."""
        return {
            "dyn_crashed": self.crashed_total,
            "dyn_revived": self.revived_total,
            "dyn_messages_lost": self.messages_lost,
        }


# ----------------------------------------------------------------------
# Compact schedule spec strings
# ----------------------------------------------------------------------


def parse_schedule(text: str) -> AdversitySchedule:
    """Parse a compact schedule spec into an :class:`AdversitySchedule`.

    Comma-separated clauses, each ``kind[@window]:args``:

    ========================  ==================================================
    clause                    meaning
    ========================  ==================================================
    ``loss:P``                drop messages i.i.d. with probability P, forever
    ``loss@A-B:P``            same, only during rounds [A, B)
    ``crash@T:K[:PATTERN]``   crash K nodes (int, or fraction <1) at round T
    ``revive@T:K``            revive K crashed nodes at round T
    ``trickle:R[:KIND]``      per-round crash trickle (bernoulli rate / poisson
                              mean R); ``trickle@A-B:R[:KIND]`` windows it
    ``blackout@A-B:K[:PAT]``  K nodes unreachable during rounds [A, B)
    ========================  ==================================================

    Example::

        parse_schedule("loss:0.02,crash@5:0.1,blackout@8-12:64")
    """
    events: List[Event] = []
    for raw in text.split(","):
        clause = raw.strip()
        if not clause:
            continue
        head, _, args = clause.partition(":")
        kind, _, window = head.partition("@")
        kind = kind.strip().lower()
        try:
            events.append(_parse_clause(kind, window, args))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad schedule clause {clause!r}: {exc}") from None
    return AdversitySchedule(tuple(events))


def _parse_clause(kind: str, window: str, args: str) -> Event:
    parts = [p.strip() for p in args.split(":")] if args else []
    if kind == "loss":
        start, stop = _parse_window(window, default=(0, None))
        return MessageLoss(p=float(parts[0]), start=start, stop=stop)
    if kind == "crash":
        if not window:
            raise ValueError("crash needs a round, e.g. crash@5:10")
        pattern = parts[1] if len(parts) > 1 else "random"
        return CrashAt(round=int(window), count=_parse_count(parts[0]), pattern=pattern)
    if kind == "revive":
        if not window:
            raise ValueError("revive needs a round, e.g. revive@9:10")
        return ReviveAt(round=int(window), count=_parse_count(parts[0]))
    if kind == "trickle":
        start, stop = _parse_window(window, default=(0, None))
        trickle_kind = parts[1] if len(parts) > 1 else "bernoulli"
        return CrashTrickle(rate=float(parts[0]), kind=trickle_kind, start=start, stop=stop)
    if kind == "blackout":
        start, stop = _parse_window(window, default=(None, None))
        if start is None or stop is None:
            raise ValueError("blackout needs a round window, e.g. blackout@4-8:32")
        pattern = parts[1] if len(parts) > 1 else "random"
        return Blackout(start=start, stop=stop, count=_parse_count(parts[0]), pattern=pattern)
    raise ValueError(f"unknown event kind {kind!r}")


def format_schedule(schedule: AdversitySchedule) -> str:
    """Render a schedule back into :func:`parse_schedule`'s grammar.

    The exact inverse of parsing: ``parse_schedule(format_schedule(s))``
    equals ``s`` for every schedule the grammar can express (pinned by the
    Hypothesis round-trip property in ``tests/test_schedule_properties.py``).
    Events with explicit ``indices`` have no spec-string form and raise
    ``ValueError`` — use the Python API for those.
    """
    return ",".join(_format_event(ev) for ev in schedule.events)


def _format_event(ev: Event) -> str:
    if isinstance(ev, CrashAt):
        _require_count(ev, "crash")
        clause = f"crash@{ev.round}:{_format_count(ev.count)}"
        return clause if ev.pattern == "random" else f"{clause}:{ev.pattern}"
    if isinstance(ev, ReviveAt):
        _require_count(ev, "revive")
        return f"revive@{ev.round}:{_format_count(ev.count)}"
    if isinstance(ev, CrashTrickle):
        clause = f"trickle{_format_window(ev.start, ev.stop)}:{ev.rate!r}"
        return clause if ev.kind == "bernoulli" else f"{clause}:{ev.kind}"
    if isinstance(ev, MessageLoss):
        return f"loss{_format_window(ev.start, ev.stop)}:{ev.p!r}"
    if isinstance(ev, Blackout):
        _require_count(ev, "blackout")
        clause = f"blackout@{ev.start}-{ev.stop}:{_format_count(ev.count)}"
        return clause if ev.pattern == "random" else f"{clause}:{ev.pattern}"
    raise TypeError(f"{ev!r} is not an adversity event")


def _require_count(ev, kind: str) -> None:
    if getattr(ev, "indices", None) is not None:
        raise ValueError(
            f"{kind} events with explicit indices have no spec-string form"
        )


def _format_count(count: Count) -> str:
    # repr round-trips floats exactly through float(); ints print plainly.
    return repr(float(count)) if isinstance(count, float) else str(int(count))


def _format_window(start: int, stop: Optional[int]) -> str:
    """The ``@A-B`` / ``@A`` window suffix; rounds [0, None) — the default
    window — formats as no suffix at all, exactly as parsed."""
    if start == 0 and stop is None:
        return ""
    if stop is None:
        return f"@{start}"
    return f"@{start}-{stop}"


def _parse_window(window: str, default):
    if not window:
        return default
    if "-" in window:
        a, _, b = window.partition("-")
        return int(a), int(b)
    return int(window), None


def _parse_count(text: str) -> Count:
    value = float(text)
    if 0 < value < 1:
        return value  # fraction
    return int(value)


# ----------------------------------------------------------------------
# Named schedule presets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NamedSchedule:
    """A catalogued schedule preset (what ``list-schedules`` prints)."""

    name: str
    description: str
    schedule: AdversitySchedule


#: The schedule preset catalogue: any re-registration of a name conflicts.
SCHEDULES = Catalogue("schedule")


def register_schedule(name: str, description: str, schedule: AdversitySchedule) -> NamedSchedule:
    """Add a named schedule to the catalogue (extension point)."""
    return SCHEDULES.register(NamedSchedule(name, description, schedule))


for _name, _desc, _sched in [
    (
        "churn-light",
        "Gentle Bernoulli churn: each alive node crashes w.p. 0.05% per round.",
        AdversitySchedule((CrashTrickle(rate=0.0005),)),
    ),
    (
        "churn-heavy",
        "Hard churn: 0.4% Bernoulli trickle plus a 5% crash burst at round 4.",
        AdversitySchedule((CrashTrickle(rate=0.004), CrashAt(round=4, count=0.05))),
    ),
    (
        "lossy-datacenter",
        "Congested-fabric link loss: every message dropped i.i.d. w.p. 2%.",
        AdversitySchedule((MessageLoss(p=0.02),)),
    ),
    (
        "blackout-partition",
        "A quarter of the network is unreachable during rounds 3-8, then returns.",
        AdversitySchedule((Blackout(start=3, stop=8, count=0.25),)),
    ),
    (
        "crash-burst",
        "Dynamic failure storm: 10% of the alive nodes crash at round 3.",
        AdversitySchedule((CrashAt(round=3, count=0.10),)),
    ),
    (
        "flaky-start",
        "Cold-start flakiness: 20% message loss during the first 6 rounds only.",
        AdversitySchedule((MessageLoss(p=0.20, stop=6),)),
    ),
]:
    register_schedule(_name, _desc, _sched)
del _name, _desc, _sched


#: Registered schedule preset names, sorted.
schedule_names = SCHEDULES.names


def get_schedule(name: str) -> AdversitySchedule:
    """Look a schedule preset up by name."""
    return SCHEDULES.lookup(name).schedule


def resolve_schedule(
    spec: "Union[AdversitySchedule, str, None]",
) -> Optional[AdversitySchedule]:
    """Normalise a schedule argument: an :class:`AdversitySchedule` passes
    through, a string is a preset name or a :func:`parse_schedule` spec,
    ``None``/empty stays ``None``."""
    if spec is None:
        return None
    if isinstance(spec, AdversitySchedule):
        return None if spec.is_empty else spec
    if isinstance(spec, str):
        if spec in SCHEDULES:
            return SCHEDULES[spec].schedule
        schedule = parse_schedule(spec)
        return None if schedule.is_empty else schedule
    raise TypeError(f"cannot interpret {spec!r} as an adversity schedule")
