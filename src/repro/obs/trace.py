"""Contact-level causal tracing and critical-path extraction.

The event tier (:mod:`repro.sim.schedule`) computes a simulated
completion time without ever explaining it.  This module answers the
question the round counter cannot: *which node, edge or delay made this
run slow*.

A :class:`ContactTrace` is the columnar log the
:class:`~repro.sim.schedule.EventScheduler` fills when tracing is on —
one row per declared contact (src, dst, start, completion, round, kind,
arrived), appended in bulk per committed round, never per message.  On
top of it:

* :meth:`ContactTrace.critical_path` reconstructs the causal chain to
  ``sim_time``.  Causality is exactly the scheduler's clock fold: a
  contact starting at ``clock[src] = t > 0`` depends on the *latest*
  earlier-round completion at ``src`` that equals ``t`` (clock entries
  are assigned from completion values, so the match is exact, not
  approximate).  The parent's round is strictly smaller, which is why a
  critical path can never be longer than the committed round count —
  the invariant benchmark E20 gates on every fingerprint configuration.
* :meth:`ContactTrace.slack` replays the clock fold to measure, per
  delivered contact, how much later the receiver's round clock ended up
  than this delivery — 0 means the contact was locally *tight* (it set
  its receiver's clock), large slack means the delivery was off the
  critical frontier.
* :meth:`ContactTrace.front` is the reached-node timeline: how many
  distinct nodes had received at least one contact by each round, and
  at what simulated time.

:class:`CriticalPath` carries the extracted hop chain plus dilation
attribution: each hop's delay is split evenly between its two endpoints
(a straggler contact is slow because *an endpoint* is slow — the delay
models are endpoint/edge functions), and credited in full to the
directed edge.  Shares are normalised by the path's total time, so "the
straggler nodes own 80% of the critical path" is a direct readout.

:func:`trace_record` / :func:`path_record` serialise both into the
telemetry schema v2 JSONL records (:mod:`repro.obs.sink`).

The trace is deliberately *uncapped*: critical-path extraction needs
every contact (a decimated log loses exactly the tight predecessors the
walk follows).  Memory is six scalars per contact — a few MiB for the
n = 2^14 bench configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ContactTrace", "CriticalPath", "path_record", "trace_record"]

#: Attribution entries kept in exported records (full tables stay on the
#: in-memory objects; JSONL carries the ranked head).
TOP_ATTRIBUTION = 16

#: Contacts kept in an exported ``trace`` record before even-stride
#: subsampling kicks in (the in-memory trace is never thinned).
TRACE_RECORD_CAP = 65536


@dataclass
class CriticalPath:
    """One extracted causal chain to ``sim_time`` plus attribution.

    ``hops`` is columnar, oldest hop first: parallel lists ``contact``
    (row index into the trace), ``src``, ``dst``, ``round``, ``kind``,
    ``start``, ``complete`` and ``delay``.  ``node_share`` /
    ``edge_share`` are fractions of the path's total time (half a hop's
    delay per endpoint; the full delay per directed edge).
    """

    length: int
    sim_time: float
    hops: Dict[str, List[Any]] = field(default_factory=dict)
    node_share: Dict[int, float] = field(default_factory=dict)
    edge_share: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def top_nodes(self, k: int = 5) -> List[Tuple[int, float]]:
        """The ``k`` heaviest dilation contributors, share-descending."""
        ranked = sorted(self.node_share.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def top_edges(self, k: int = 5) -> List[Tuple[Tuple[int, int], float]]:
        ranked = sorted(self.edge_share.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


class ContactTrace:
    """Columnar per-contact log of one event-tier execution.

    Filled by :meth:`record` — one call per committed round with the
    scheduler's already-materialised bulk arrays (the arrays are fresh
    per commit, so they are kept by reference; nothing is copied on the
    hot path).  Columns materialise lazily on first read.
    """

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self._chunks: List[tuple] = []
        self._count = 0
        self._columns: Optional[Dict[str, np.ndarray]] = None

    def record(
        self,
        round_no: int,
        srcs: np.ndarray,
        dsts: np.ndarray,
        starts: np.ndarray,
        completes: np.ndarray,
        arrived: np.ndarray,
        push: np.ndarray,
    ) -> None:
        """Append one committed round's contacts (bulk, by reference)."""
        self._chunks.append(
            (int(round_no), srcs, dsts, starts, completes, arrived, push)
        )
        self._count += len(srcs)
        self._columns = None

    def __len__(self) -> int:
        return self._count

    @property
    def sim_time(self) -> float:
        """Latest completion over all recorded contacts (0 if empty)."""
        if not self._count:
            return 0.0
        return float(max(np.max(c[4]) for c in self._chunks))

    def columns(self) -> Dict[str, np.ndarray]:
        """The materialised columnar view (cached until the next append)."""
        if self._columns is None:
            if not self._chunks:
                self._columns = {
                    "src": np.zeros(0, dtype=np.int64),
                    "dst": np.zeros(0, dtype=np.int64),
                    "start": np.zeros(0, dtype=np.float64),
                    "complete": np.zeros(0, dtype=np.float64),
                    "round": np.zeros(0, dtype=np.int64),
                    "arrived": np.zeros(0, dtype=bool),
                    "push": np.zeros(0, dtype=bool),
                }
            else:
                rounds = np.concatenate(
                    [np.full(len(c[1]), c[0], dtype=np.int64) for c in self._chunks]
                )
                self._columns = {
                    "src": np.concatenate([c[1] for c in self._chunks]),
                    "dst": np.concatenate([c[2] for c in self._chunks]),
                    "start": np.concatenate(
                        [np.asarray(c[3], dtype=np.float64) for c in self._chunks]
                    ),
                    "complete": np.concatenate(
                        [np.asarray(c[4], dtype=np.float64) for c in self._chunks]
                    ),
                    "round": rounds,
                    "arrived": np.concatenate([c[5] for c in self._chunks]),
                    "push": np.concatenate(
                        [np.asarray(c[6], dtype=bool) for c in self._chunks]
                    ),
                }
        return self._columns

    # -- causal analysis ------------------------------------------------

    def critical_path(self) -> CriticalPath:
        """Extract the causal chain ending at the latest completion.

        The walk inverts the scheduler's clock fold.  Clock *updates*
        are: every contact at its source (initiating advances the
        source's clock) and every delivered contact at its destination.
        A contact with ``start = t > 0`` in round ``r`` was enabled by
        the latest update at its source with time exactly ``t`` and
        round ``< r`` — equality is exact because starts are read from
        the clock array, whose entries are assigned from completion
        values.  Rounds strictly decrease along the walk, so the path
        has at most ``max(round)`` hops.
        """
        if not self._count:
            return CriticalPath(length=0, sim_time=0.0)

        # The walk stays chunk-local: it visits at most ``rounds`` hops,
        # each resolved by masked scans over one round's arrays, so the
        # global columnar view (and a fortiori a global sort of every
        # update) never needs materialising — at large n either of those
        # dominated the whole traced run.
        chunks: List[tuple] = []  # (round, offset, src, dst, start, complete, arrived, push)
        off = 0
        for c in self._chunks:
            chunks.append((int(c[0]), off) + tuple(c[1:]))
            off += len(c[1])
        by_round: Dict[int, List[tuple]] = {}
        for ch in chunks:
            by_round.setdefault(ch[0], []).append(ch)
        round_keys = sorted(by_round)

        # Terminal contact: first global occurrence of the latest
        # completion (matching np.argmax over the concatenated column).
        sim_time, cur = -1.0, None
        for ch in chunks:
            li = int(np.argmax(ch[5]))
            tm = float(ch[5][li])
            if tm > sim_time:
                sim_time, cur = tm, (ch, li)

        chain: List[tuple] = [cur]
        while float(cur[0][4][cur[1]]) > 0.0:
            ch, li = cur
            s, t, r = int(ch[2][li]), float(ch[4][li]), ch[0]
            # Latest update at node s with time <= t and round < r;
            # ties broken by higher round, then higher contact index —
            # the clock fold guarantees some earlier update equals t
            # exactly, so the descending scan usually stops at r - 1.
            best_time, best = -1.0, None
            for rr in reversed([q for q in round_keys if q < r]):
                for ch2 in by_round[rr]:
                    _, _, srcs2, dsts2, _, completes2, arrived2, _ = ch2
                    # Node-first filtering: a node initiates at most a
                    # couple of contacts per round and fan-in is small,
                    # so the candidate set is tiny — cheaper than
                    # masking the whole chunk by time as well.
                    tmax, cand = -1.0, -1
                    for j in np.nonzero(srcs2 == s)[0]:
                        tj = float(completes2[j])
                        if tj <= t and (tj > tmax or (tj == tmax and j > cand)):
                            tmax, cand = tj, int(j)
                    for j in np.nonzero(dsts2 == s)[0]:
                        if not arrived2[j]:
                            continue
                        tj = float(completes2[j])
                        if tj <= t and (tj > tmax or (tj == tmax and j > cand)):
                            tmax, cand = tj, int(j)
                    if cand < 0:
                        continue
                    if tmax > best_time or (
                        tmax == best_time
                        and best is not None
                        and ch2[1] + cand > best[0][1] + best[1]
                    ):
                        best_time, best = tmax, (ch2, cand)
                if best_time == t:
                    break
            if best is None:
                break  # no earlier-round cause recorded (partial trace)
            cur = best
            chain.append(cur)
        chain.reverse()

        delays = [float(ch[5][li]) - float(ch[4][li]) for ch, li in chain]
        total = sum(delays)
        node_share: Dict[int, float] = {}
        edge_share: Dict[Tuple[int, int], float] = {}
        if total > 0.0:
            for (ch, li), d in zip(chain, delays):
                u, w = int(ch[2][li]), int(ch[3][li])
                node_share[u] = node_share.get(u, 0.0) + 0.5 * d / total
                node_share[w] = node_share.get(w, 0.0) + 0.5 * d / total
                edge_share[(u, w)] = edge_share.get((u, w), 0.0) + d / total
        hops = {
            "contact": [ch[1] + li for ch, li in chain],
            "src": [int(ch[2][li]) for ch, li in chain],
            "dst": [int(ch[3][li]) for ch, li in chain],
            "round": [ch[0] for ch, _ in chain],
            "kind": ["push" if ch[7][li] else "pull" for ch, li in chain],
            "start": [round(float(ch[4][li]), 6) for ch, li in chain],
            "complete": [round(float(ch[5][li]), 6) for ch, li in chain],
            "delay": [round(d, 6) for d in delays],
        }
        return CriticalPath(
            length=len(chain),
            sim_time=sim_time,
            hops=hops,
            node_share=node_share,
            edge_share=edge_share,
        )

    def slack(self) -> np.ndarray:
        """Per-delivered-contact slack, in trace order.

        Replays the clock fold chunk by chunk: a delivered contact's
        slack is how far its receiver's clock ended up *beyond* this
        delivery once the whole round folded — 0 means this delivery
        set the receiver's clock (locally tight).
        """
        clock = np.zeros(self.n, dtype=np.float64)
        out: List[np.ndarray] = []
        for _, srcs, dsts, _, completes, arrived, _ in self._chunks:
            completes = np.asarray(completes, dtype=np.float64)
            np.maximum.at(clock, srcs, completes)
            if arrived.any():
                delivered = dsts[arrived]
                np.maximum.at(clock, delivered, completes[arrived])
                out.append(clock[delivered] - completes[arrived])
        if not out:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(out)

    def slack_histogram(self, bins: int = 8) -> Dict[str, Any]:
        """``{edges, counts, mean, max}`` of the slack distribution."""
        slacks = self.slack()
        if not len(slacks):
            return {"edges": [], "counts": [], "mean": 0.0, "max": 0.0}
        counts, edges = np.histogram(slacks, bins=bins)
        return {
            "edges": [round(float(e), 6) for e in edges],
            "counts": [int(c) for c in counts],
            "mean": round(float(slacks.mean()), 6),
            "max": round(float(slacks.max()), 6),
        }

    def front(self) -> Dict[str, List[Any]]:
        """Reached-node timeline: per round, the cumulative count of
        distinct nodes that received at least one contact, and the
        running-max completion time.  (The protocol-aware informed
        series from telemetry is preferred when available — this is the
        trace-only fallback.)"""
        seen = np.zeros(self.n, dtype=bool)
        rounds: List[int] = []
        times: List[float] = []
        counts: List[int] = []
        tmax = 0.0
        for round_no, _, dsts, _, completes, arrived, _ in self._chunks:
            if len(completes):
                tmax = max(tmax, float(np.asarray(completes).max()))
            if arrived.any():
                seen[dsts[arrived]] = True
            rounds.append(int(round_no))
            times.append(round(tmax, 6))
            counts.append(int(seen.sum()))
        return {"round": rounds, "time": times, "informed": counts}


def trace_record(trace: ContactTrace, cap: int = TRACE_RECORD_CAP) -> Dict[str, Any]:
    """Serialise a trace into the schema v2 ``trace`` record payload.

    Records beyond ``cap`` contacts subsample at an even stride (always
    keeping the first and last row) and say so via ``subsampled`` — the
    in-memory trace, and therefore the critical path, is never thinned.
    """
    cols = trace.columns()
    m = len(trace)
    if m > cap:
        pick = np.unique(np.linspace(0, m - 1, cap).round().astype(np.int64))
        subsampled = True
    else:
        pick = np.arange(m)
        subsampled = False
    return {
        "type": "trace",
        "contacts": m,
        "sim_time": round(trace.sim_time, 6),
        "subsampled": subsampled,
        "columns": {
            "src": [int(v) for v in cols["src"][pick]],
            "dst": [int(v) for v in cols["dst"][pick]],
            "start": [round(float(v), 6) for v in cols["start"][pick]],
            "complete": [round(float(v), 6) for v in cols["complete"][pick]],
            "round": [int(v) for v in cols["round"][pick]],
            "kind": ["push" if p else "pull" for p in cols["push"][pick]],
            "arrived": [bool(a) for a in cols["arrived"][pick]],
        },
    }


def path_record(
    trace: ContactTrace,
    path: CriticalPath,
    *,
    rounds: Optional[int] = None,
    front: Optional[Dict[str, List[Any]]] = None,
) -> Dict[str, Any]:
    """Serialise a critical path (+ attribution, slack, front) into the
    schema v2 ``path`` record payload.  ``front`` overrides the trace's
    reached-node fallback with a protocol-aware informed timeline."""
    record: Dict[str, Any] = {
        "type": "path",
        "length": int(path.length),
        "sim_time": round(float(path.sim_time), 6),
        "hops": path.hops,
        "node_attribution": {
            str(node): round(share, 6)
            for node, share in path.top_nodes(TOP_ATTRIBUTION)
        },
        "edge_attribution": {
            f"{u}->{w}": round(share, 6)
            for (u, w), share in path.top_edges(TOP_ATTRIBUTION)
        },
        "slack": trace.slack_histogram(),
        "front": front if front is not None else trace.front(),
    }
    if rounds is not None:
        record["rounds"] = int(rounds)
        record["dilation"] = round(float(path.sim_time) / max(int(rounds), 1), 6)
    return record
