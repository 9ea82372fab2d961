"""Batched ``(R, n)`` execution of the cluster pipeline (Algorithms 1/2).

:mod:`repro.sim.batch` vectorises the *uniform* gossip protocols across
replications; this module does the same for the paper's actual
contribution — the Cluster1/Cluster2 direct-addressing pipeline.  The
whole clustering state of R replications lives in ``(R, n)`` arrays
(:class:`ClusterBatch`): ``follow`` carries the partition exactly as
:class:`repro.core.clustering.Clustering` does per run, ``active`` the
activation flags, and ``uid`` a per-replication random total order that
stands in for the ID space (only uid *order* is ever consulted).

The primitives are *member-centric*: each indexes the clustered
members of its ``follow`` rows (flat positions in the local ``A * n``
space, their rep row / node column / leader column), and then does all
work — coins, contact draws, receiver digests, accounting — on those
1-D member arrays, writing mutations straight back into the state by
flat position.  Three habits keep the passes over those arrays few:

- a subset of the members is selected by index (one ``flatnonzero``,
  then integer gathers) rather than by gathering each array through a
  boolean mask;
- member arrays are in flat, rep-major order, so per-rep tallies are
  binary searches over sorted row arrays rather than ``bincount``
  passes;
- the member view is cached until ``follow`` changes, and patched
  rather than rebuilt when a write changes only who leads a cluster
  (ClusterResize, ClusterMerge).

Random-contact targets are drawn only for actual senders.  Receiver
digests mirror :mod:`repro.sim.delivery` semantics: a uniformly random
choice among a destination's deliveries is one ordered scatter into a
dense digest (last write wins, the write order drawn from one
permutation), and a minimum-uid choice is one combined-key sort (or a
min-scatter when deliveries saturate the space).

A structural invariant makes that cheap: ``follow`` pointers always aim
*directly* at true leaders except transiently inside ClusterMerge (grow
and pull adoption copy a member's pointer, which is already a leader;
resize assigns new leaders directly).  Merge therefore resolves its
leader-level target chains up front and repoints members straight to
their final leader — no global chain compression pass anywhere.

The phases themselves are not written here: :mod:`repro.core.phases`
holds the one Cluster1/Cluster2 recipe, and :class:`ClusterBatch` is its
``(R, n)`` backend (the sequential tier is the one-row
:class:`repro.core.phases.SequentialBackend`).  Replications diverge
(per-rep loop exits, conditional resizes, idle retries): every primitive
therefore takes an ``act`` array of replication rows and charges
rounds/messages/bits/fan-in only at those rows, so the batch stays
correct when the recipe shrinks its active set mid-phase.

Memory: the primitives allocate their ``(A * n)`` digests, flags and
gathers fresh on every call (2 MiB each at int64 for one row of
n = 2^18).  glibc maps a block of at least its mmap threshold on its
own, and hands free memory at the top of its heap back to the OS once
it exceeds the trim threshold.  Both follow the largest mapped block
freed so far (the mmap threshold becomes its size, up to 32 MiB, and
the trim threshold twice that; mallopt(3)).  :class:`ClusterBatch`
therefore allocates ``follow`` and ``uid`` as the two rows of one
``(2, R, n)`` block: freed at each chunk's end, it is the largest block
the process frees, so the heap keeps twice as much memory at its top
and more of the temporaries reuse it, rather than being faulted in
again call after call.  How many still fault depends on where
longer-lived allocations happen to sit in the heap.  At
``R * n = 2^22`` each temporary is 32 MiB, the ceiling, so the block
cannot lift the thresholds there.

Accounting follows the engine (:mod:`repro.sim.engine`) rule for rule on
the zero-adversity path this executor serves: every push is charged when
sent (including ``-1`` void contacts on a restricted topology — charged,
undelivered); pull responses are charged iff the responder has content;
fan-in is the per-round reduction of *arrived* pushes plus pull requests.
Like the uniform batch runners, the draws form a different (identically
distributed) stream than R sequential runs, so this path is validated
statistically against the ``reset`` engine, never by the fingerprint
corpus; ``tests/test_batch_cluster_pin.py`` pins its own outputs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core import phases
from repro.core.clustering import UNCLUSTERED, split_chunks
from repro.core.constants import LAPTOP, Cluster1Params, Cluster2Params, Profile
from repro.obs.spans import maybe_span
from repro.sim.batch import BatchLedger, BatchOutcome, per_rep_max_fanin, resolve_sources
from repro.sim.delivery import NOTHING
from repro.sim.messages import MessageSizes
from repro.sim.topology import ContactGraph

__all__ = ["ClusterBatch", "batched_cluster1", "batched_cluster2"]

#: Hop cap when resolving merge-target chains (cycle guard).
_MAX_MERGE_HOPS = 64


def _row_counts(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Entries per local rep row of a *sorted* row array.

    Member arrays are in flat, rep-major order, and any in-order
    selection of them stays sorted, so ``n_rows + 1`` binary searches
    replace a ``bincount`` pass over every entry.
    """
    return np.diff(np.searchsorted(rows, np.arange(n_rows + 1)))


def _run_heads(d: np.ndarray) -> np.ndarray:
    """Positions of the first entry of each run of equal values in the
    sorted array ``d``."""
    first = np.ones(len(d), dtype=bool)
    first[1:] = d[1:] != d[:-1]
    return np.flatnonzero(first)


class _Members:
    """One act-block member view (see :meth:`ClusterBatch._members`).

    ``flatF`` is the raveled gathered follow block; ``flat`` the member
    positions in the local ``A * n`` space; ``r``/``c``/``ldr`` the
    per-member local rep row, node column, and leader column; ``seg``
    the leader's flat position (the member's cluster segment); ``is_l``
    / ``foll`` the leader/follower masks; ``lead`` the positions *into
    the member arrays* of the leaders (so ``r[lead]``/``c[lead]`` are
    cheap integer gathers instead of repeated boolean scans).

    The arrays are never written in place: a single-row view passes
    ``c`` as ``flat`` itself (its flat positions are node columns), and
    then ``seg`` is ``ldr`` itself.
    """

    __slots__ = (
        "flatF", "flat", "r", "c", "ldr", "seg", "is_l", "lead",
        "_foll", "_n_memb", "_n_foll", "_counts", "_size_fan",
    )

    def __init__(self, flatF, flat, r, c, ldr):
        self.flatF = flatF
        self.flat = flat
        self.r = r
        self.c = c
        self.ldr = ldr
        if c is flat:
            self.seg = ldr
        else:
            self.seg = flat - c
            self.seg += ldr
        self.is_l = ldr == c
        self.lead = np.flatnonzero(self.is_l)
        self._foll = None
        self._n_memb = None
        self._n_foll = None
        self._counts = None
        self._size_fan = None

    def releaded(self, idx: np.ndarray, ldr: np.ndarray) -> "_Members":
        """The same members with those at ``idx`` (positions into the
        member arrays) following leader columns ``ldr`` — the view after
        a write that changes who leads a cluster, never who is in it.
        Only ``ldr`` is scattered; whole-array recomputes of the derived
        fields are cheaper than gathering and scattering them at ``idx``."""
        new_ldr = self.ldr.copy()
        new_ldr[idx] = ldr
        view = _Members(self.flatF, self.flat, self.r, self.c, new_ldr)
        view._n_memb = self._n_memb
        return view

    @property
    def foll(self) -> np.ndarray:
        """Follower mask (lazy — only the member-round primitives ask)."""
        if self._foll is None:
            self._foll = ~self.is_l
        return self._foll

    def n_memb(self, n_rows: int) -> np.ndarray:
        """Members per local rep row (cached — the all-member push
        rounds charge exactly this histogram)."""
        if self._n_memb is None or len(self._n_memb) != n_rows:
            self._n_memb = _row_counts(self.r, n_rows)
        return self._n_memb

    def n_foll(self, n_rows: int) -> np.ndarray:
        """Followers per local rep row (cached — every two-round
        primitive charges this same histogram)."""
        if self._n_foll is None or len(self._n_foll) != n_rows:
            self._n_foll = self.n_memb(n_rows) - _row_counts(
                self.r[self.lead], n_rows
            )
        return self._n_foll

    def counts(self, n_rows: int, n: int) -> np.ndarray:
        """Members per cluster segment (cached — size/dissolve/resize
        all start from this histogram, and it only depends on follow)."""
        if self._counts is None or len(self._counts) != n_rows * n:
            self._counts = np.bincount(self.seg, minlength=n_rows * n)
        return self._counts

    def size_fan(self, n_rows: int, n: int) -> np.ndarray:
        """Per-rep fan-in of a full follower→leader round, straight from
        the cluster-size counts: the busiest leader hears from its
        ``size - 1`` followers."""
        if self._size_fan is None or len(self._size_fan) != n_rows:
            biggest = self.counts(n_rows, n).reshape(n_rows, n).max(axis=1)
            self._size_fan = np.maximum(biggest - 1, 0)
        return self._size_fan


class ClusterBatch(BatchLedger):
    """R replications of clustering state, advanced one primitive at a time.

    Parameters
    ----------
    n:
        Network size (shared by all replications).
    reps:
        Number of replications R.
    rng:
        Generator for *all* coins of the batch: uid orders, seeds,
        activation flips, contact draws, digest tie-breaks.
    message_bits:
        Rumor payload size ``b`` (the ClusterShare message).
    graph:
        Optional bound :class:`~repro.sim.topology.ContactGraph`; the
        random-contact primitives then draw per-caller neighbors
        (``-1`` when a caller has none — charged, undelivered) instead
        of uniform global targets.  Leader/follower traffic stays
        directly addressed (the paper's global addressing).

    The batch is its own :class:`~repro.sim.batch.BatchLedger`: every
    primitive charges its rounds there, and its telemetry rows carry the
    mean live cluster count (``clusters``).  ``overlay`` (the event tier)
    folds every committed round's contacts into the per-rep clock
    matrix; idle rounds take no simulated time, mirroring the sequential
    :class:`~repro.sim.schedule.EventScheduler`.
    """

    def __init__(
        self,
        n: int,
        reps: int,
        rng: np.random.Generator,
        *,
        message_bits: int = 256,
        graph: Optional[ContactGraph] = None,
        telemetry=None,
        overlay=None,
    ) -> None:
        super().__init__(
            n,
            reps,
            telemetry=telemetry,
            overlay=overlay,
            columns=lambda batch: {"clusters": batch._cluster_count()},
        )
        self.rng = rng
        self.graph = graph
        self._leaders = 0  # live clusters over all rows (see _cluster_count)
        self.sizes = MessageSizes(self.n, rumor_bits=message_bits)
        # ``follow`` and ``uid`` are the two rows of one (2, R, n) block.
        # Freed at the chunk's end, it is the largest block the process
        # frees, so glibc's dynamic thresholds (mallopt(3)) lift the mmap
        # threshold to its size (~4 MiB at R * n = 2^18) and the trim
        # threshold to twice that (~8 MiB).  More of the primitives'
        # per-call (A * n) temporaries then reuse heap memory instead of
        # being faulted in again on every call (see the module docstring).
        self.follow, self.uid = np.empty((2, reps, n), dtype=np.int64)
        self.follow.fill(UNCLUSTERED)
        self.active = np.zeros((reps, n), dtype=bool)
        # The primitives write both through ``ravel()``, which silently
        # copies a non-contiguous array; they are only ever written in
        # place, so this holds for the batch's lifetime.
        assert self.follow.flags.c_contiguous and self.active.flags.c_contiguous
        # A per-replication uniform random total order over the nodes:
        # everything the algorithms do with IdSpace uids is order
        # comparisons, for which a random permutation is equidistributed.
        rng.permuted(
            np.tile(np.arange(n, dtype=np.int64), (reps, 1)), axis=1, out=self.uid
        )
        self._cols = np.arange(n, dtype=np.int64)
        # Row/column splits of flat indices dominate the member view;
        # powers of two (the scale tier's sizes) get shift/mask splits.
        self._shift = self.n.bit_length() - 1 if self.n & (self.n - 1) == 0 else None
        # Member-view cache: rebuilt only when ``follow`` actually
        # mutates (the version counter) or the act block changes.
        self._follow_ver = 0
        self._view: "Optional[Tuple[int, np.ndarray, _Members]]" = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _fanin(self, n_rows: int, arrived: np.ndarray) -> np.ndarray:
        """Per-rep max fan-in of the ``arrived`` flat contacts.

        Dense bincount when the contact list covers a fair share of the
        ``n_rows * n`` space; otherwise a sort + run-length reduction
        proportional to the contacts that actually happened.
        """
        if len(arrived) * 8 >= n_rows * self.n:
            return per_rep_max_fanin(arrived, n_rows, self.n)
        dst = np.sort(arrived)
        starts = _run_heads(dst)
        lens = np.diff(np.append(starts, len(dst)))
        rep = self._rowcol(dst[starts])[0]  # nondecreasing (dst sorted)
        fan = np.zeros(n_rows, dtype=np.int64)
        rstep = np.flatnonzero(rep[1:] != rep[:-1])
        rstarts = np.concatenate(([0], rstep + 1))
        fan[rep[rstarts]] = np.maximum.reduceat(lens, rstarts)
        return fan

    def _charge(self, act, msgs, bits, arrived=None, fan=None) -> None:
        """Commit one round at replication rows ``act``.

        ``msgs``/``bits`` are per-rep arrays (or scalars) of charged
        messages; ``arrived`` holds rep-offset flat indices of every
        contact that arrived this round (pushes + pull requests) — one
        reduction yields the per-rep fan-in, exactly the engine's rule.
        Callers that already hold the per-rep fan-in (e.g. from cluster
        size counts) pass ``fan`` directly instead.
        """
        if fan is None and arrived is not None and len(arrived):
            fan = self._fanin(len(act), arrived)
        self.charge(act, msgs, bits, fan)

    def _fold_clock(self, g, rows, srcs, dsts, arrived=None) -> None:
        """Fold one committed round's contacts into the event overlay.

        ``rows`` are local act-block rep indices (``g`` maps them to
        batch rows); ``srcs``/``dsts`` are node columns.  One call per
        charged round, so all of a round's contacts share the pre-round
        clock snapshot — the sequential scheduler's concurrency rule.
        """
        self.overlay.fold(np.asarray(g)[rows], srcs, dsts, arrived)

    def _cluster_count(self) -> float:
        """Mean live cluster (leader) count.  A dense probe samples every
        committed round, so the count is kept rather than scanned for:
        only seeding, ClusterDissolve, ClusterResize and ClusterMerge
        make or unmake leaders (a grow or pull join adds a follower), and
        each adjusts ``_leaders`` by the leaders it wrote."""
        return self._leaders / self.reps

    # ------------------------------------------------------------------
    # Member view and sparse receiver digests
    # ------------------------------------------------------------------

    def _rowcol(self, flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split local flat positions into (rep row, node column)."""
        if self._shift is not None:
            return flat >> self._shift, flat & (self.n - 1)
        r = flat // self.n
        return r, flat - r * self.n

    def _gather(self, act) -> Tuple[np.ndarray, np.ndarray]:
        """The follow block at rows ``act`` (``act`` is always a sorted
        subset of ``arange(reps)``, so the full-length case is the whole
        batch and gets a zero-copy view)."""
        g = np.asarray(act)
        return g, self.follow if len(g) == self.reps else self.follow[g]

    def _members(self, act) -> _Members:
        """Gather the ``follow`` rows at ``act`` and index their members.

        The view is cached on ``(follow version, act)``: activation
        flips, accounting, and empty-delivery rounds leave ``follow``
        untouched, so driver sequences like activate → push → merge (or
        the saturated phases of the grow loops, where every push lands
        on a clustered receiver) reuse one scan instead of re-deriving
        the identical index arrays primitive after primitive.  Every
        mutation site bumps ``_follow_ver`` iff it actually wrote;
        re-leading writes install a patched view under the new version
        (:meth:`_relead`).
        """
        g = np.asarray(act)
        cached = self._view
        if (
            cached is not None
            and cached[0] == self._follow_ver
            and len(cached[1]) == len(g)
            and (len(g) == self.reps or np.array_equal(cached[1], g))
        ):
            return cached[2]
        _, F = self._gather(act)
        flatF = F.ravel()
        flat = np.flatnonzero(flatF != UNCLUSTERED)
        # A single row (the default vector chunk at n >= 2^16) needs no split:
        # its flat positions are its node columns.
        if len(g) == 1:
            r, c = np.zeros(len(flat), dtype=flat.dtype), flat
        else:
            r, c = self._rowcol(flat)
        view = _Members(flatF, flat, r, c, flatF[flat])
        self._view = (self._follow_ver, g, view)
        return view

    def _global(self, g: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Batch-wide flat positions (into ``follow``/``active``/``uid``
        raveled) of local flat positions ``flat`` at rows ``g`` — the
        identity when ``g`` is the whole batch."""
        if len(g) == self.reps:
            return flat
        r, c = self._rowcol(flat)
        return g[r] * self.n + c

    def _relead(self, g: np.ndarray, m: _Members, idx, ldr) -> None:
        """Point the members at ``idx`` (positions into the member
        arrays of ``m``) to leader columns ``ldr``.

        ClusterResize and ClusterMerge change who leads a cluster, never
        who is in it, so a whole-batch view (whose ``flatF`` aliases
        ``follow``) is patched in place of a rebuild; a subset view holds
        a copy of the old rows and is left to go stale.
        """
        self.follow.ravel()[self._global(g, m.flat[idx])] = ldr
        self._follow_ver += 1
        if len(g) == self.reps:
            self._view = (self._follow_ver, g, m.releaded(idx, ldr))

    def _draw_targets(self, cols: np.ndarray) -> np.ndarray:
        """One random contact per calling node column: a uniform other
        node on the complete graph, a uniform neighbor (``-1`` when
        isolated) on a bound contact graph.  Columns may repeat across
        replications — each entry is an independent draw."""
        if self.graph is None:
            t = self.rng.integers(0, self.n - 1, size=len(cols), dtype=np.int64)
            t += t >= cols
            return t
        return self.graph.sample_contacts(cols, self.rng)

    def _receive_min_pairs(self, dst, vals, keys, size):
        """Per distinct ``dst``, the value with the smallest key — the
        sparse mirror of :func:`repro.sim.delivery.receive_min_by_key`.

        Dense deliveries: one indexed min-scatter of the combined
        ``key * n + val`` word (values sit in the low bits, so the
        per-destination minimum selects min key, ties toward min value
        — keys are uids, injective per replication, so ties cannot even
        arise).  Sparse deliveries: one combined-key sort over what
        actually arrived, keeping the head of each destination's run.
        """
        m = len(dst)
        if m == 0:
            return dst, vals
        if m * 8 >= size:
            sentinel = np.iinfo(np.int64).max
            digest = np.full(size, sentinel)
            np.minimum.at(digest, dst, keys * np.int64(self.n) + vals)
            d = np.flatnonzero(digest != sentinel)
            return d, digest[d] % self.n
        order = np.argsort(dst * np.int64(self.n) + keys)
        # Indices, not a mask: gathering through a random mask is much slower.
        heads = order[_run_heads(dst[order])]
        return dst[heads], vals[heads]

    def _any_order(self, m: int, size: int) -> np.ndarray:
        """The write order of ``m`` deliveries into a ``size``-slot
        digest under which the last write per destination is a
        uniformly random one of its deliveries (one ``permutation(m)``
        draw).

        Dense regime (``4m >= size``): the permuted order itself.
        Sparse regime: each destination's winner is its delivery of
        smallest priority ``perm[i]``; writing in descending priority
        (the reversed inverse permutation) lands that write last.
        """
        perm = self.rng.permutation(m)
        if m * 4 >= size:
            return perm
        inv = np.empty(m, dtype=np.int64)
        inv[perm] = np.arange(m)
        return inv[::-1]

    def _receive_any_pairs(self, dst, vals, size):
        """Per distinct ``dst``, a uniformly random received value — the
        ``(dst, value)`` pairs of :func:`repro.sim.delivery.receive_any`:
        one ordered scatter into a dense digest (last write wins, as in
        the delivery module; :meth:`_any_order` picks the order), read
        back in destination order."""
        m = len(dst)
        if m == 0:
            return dst, vals
        order = self._any_order(m, size)
        digest = np.full(size, NOTHING, dtype=np.int64)
        digest[dst[order]] = vals[order]
        d = np.flatnonzero(digest != NOTHING)
        return d, digest[d]

    # ------------------------------------------------------------------
    # The phase recipe's row queries (repro.core.phases); no rounds
    # ------------------------------------------------------------------

    #: The vector tier records no algorithm events.
    records_events = False
    #: Vector runs see no dynamics (``vector_unavailable`` refuses them).
    liveness_changed = False

    def phase(self, name: str):
        """A phase of the recipe: a telemetry span when one is attached."""
        return maybe_span(self.telemetry, name)

    def leaders(self, act) -> Tuple[np.ndarray, np.ndarray]:
        """Local rows and node columns of every leader at rows ``act``,
        row-major, off the (cached) member view: a scan right before a
        primitive warms the cache the primitive then reuses."""
        m = self._members(act)
        return m.r[m.lead], m.c[m.lead]

    def leader_sizes(self, act) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-leader cluster sizes without spending rounds (the
        accounted measurement is :meth:`cluster_size`); the same
        ``(rows, cols, sizes)`` row-major leader order."""
        g = np.asarray(act)
        m = self._members(act)
        counts = m.counts(len(g), self.n)
        return m.r[m.lead], m.c[m.lead], counts[m.flat[m.lead]]

    def unclustered_counts(self, act) -> np.ndarray:
        """Unclustered nodes per row of ``act``."""
        return np.count_nonzero(self._gather(act)[1] == UNCLUSTERED, axis=1)

    # ------------------------------------------------------------------
    # Section 3.2 primitives, batched
    # ------------------------------------------------------------------

    def seed_singletons(self, prob: float) -> int:
        """Seed singleton active clusters with probability ``prob`` per
        node (local coins, no round); a row whose coins all missed seeds
        node 0, as the sequential backend seeds one node.  Returns the
        number of seeds over all rows."""
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"seed probability must be in (0,1], got {prob}")
        coins = self.rng.random((self.reps, self.n)) < prob
        empty = ~coins.any(axis=1)
        coins[empty, 0] = True
        np.copyto(self.follow, self._cols, where=coins)
        self.active |= coins
        self._follow_ver += 1
        self._leaders = int(np.count_nonzero(self.follow == self._cols))
        return self._leaders

    def cluster_activate(self, act, p: Optional[float]) -> None:
        """ClusterActivate(p); ``p=None`` is the deterministic
        activate-all variant.  One round (a rep with no clusters has an
        empty pull set — its round is the sequential idle round)."""
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"activation probability must be in [0,1], got {p}")
        g = np.asarray(act)
        A = len(g)
        m = self._members(act)
        self.active[g] = False
        lead = self._global(g, m.flat[m.lead])
        if p is not None:
            lead = lead[self.rng.random(len(lead)) < p]
        self.active.ravel()[lead] = True
        # Every follower pulls its leader's flag.
        n_foll = m.n_foll(A)
        self._charge(
            act, n_foll, n_foll * self.sizes.flag_bits, fan=m.size_fan(A, self.n)
        )
        if self.overlay is not None:
            self._fold_clock(g, m.r[m.foll], m.c[m.foll], m.ldr[m.foll])

    def cluster_size(self, act) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ClusterSize (two rounds); returns ``(rows, cols, sizes)`` —
        per-leader local rep row, leader column, and cluster size, in
        row-major leader order."""
        g = np.asarray(act)
        m = self._members(act)
        counts = m.counts(len(g), self.n)
        fan = m.size_fan(len(g), self.n)
        n_foll = m.n_foll(len(g))
        self._charge(act, n_foll, n_foll * self.sizes.id_bits, fan=fan)  # ID push
        if self.overlay is not None:
            fr, fc, fl = m.r[m.foll], m.c[m.foll], m.ldr[m.foll]
            self._fold_clock(g, fr, fc, fl)  # ID push round
        self._charge(act, n_foll, n_foll * self.sizes.count_bits, fan=fan)  # count pull
        if self.overlay is not None:
            self._fold_clock(g, fr, fc, fl)  # count pull round
        return m.r[m.lead], m.c[m.lead], counts[m.flat[m.lead]]

    def cluster_dissolve(self, act, s: int) -> None:
        """ClusterDissolve(s) (two rounds): clusters smaller than ``s``
        disband."""
        if s < 1:
            raise ValueError(f"size floor must be >= 1, got {s}")
        g = np.asarray(act)
        m = self._members(act)
        counts = m.counts(len(g), self.n)
        fan = m.size_fan(len(g), self.n)
        n_foll = m.n_foll(len(g))
        self._charge(act, n_foll, n_foll * self.sizes.id_bits, fan=fan)
        if self.overlay is not None:
            fr, fc, fl = m.r[m.foll], m.c[m.foll], m.ldr[m.foll]
            self._fold_clock(g, fr, fc, fl)
        self._charge(act, n_foll, n_foll * self.sizes.id_bits, fan=fan)
        if self.overlay is not None:
            self._fold_clock(g, fr, fc, fl)
        doomed = np.flatnonzero(counts[m.seg] < s)
        if len(doomed):
            self.follow.ravel()[self._global(g, m.flat[doomed])] = UNCLUSTERED
            dl = doomed[m.is_l[doomed]]
            self.active.ravel()[self._global(g, m.flat[dl])] = False
            self._follow_ver += 1
            self._leaders -= len(dl)

    def cluster_resize(self, act, s: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ClusterResize(s) (two rounds): leaders split oversized clusters
        into ``k = floor(s'/s)`` uid-sorted chunks; each follower pulls the
        ``k * id_bits`` new-leader list (footnote 2's one super-constant
        message).  The split is :func:`repro.core.clustering.split_chunks`,
        the kernel the sequential ClusterResize shares.

        Returns the *post-split* ``(rows, cols, sizes)`` leader triplet
        (unsplit leaders first, then the split chunks' new leaders) —
        free bookkeeping the grow phase would otherwise re-scan for.
        """
        if s < 1:
            raise ValueError(f"target size must be >= 1, got {s}")
        g = np.asarray(act)
        A, n = len(g), self.n
        m = self._members(act)
        counts = m.counts(A, n)
        fan = m.size_fan(A, n)
        n_foll = m.n_foll(A)
        self._charge(act, n_foll, n_foll * self.sizes.id_bits, fan=fan)  # ID push
        if self.overlay is not None:  # pre-split membership, both rounds
            fr, fc, fl = m.r[m.foll], m.c[m.foll], m.ldr[m.foll]
            self._fold_clock(g, fr, fc, fl)

        # Per leader: its cluster's size and chunk count k (1: no split).
        lr = m.r[m.lead]
        size = counts[m.flat[m.lead]]
        k = np.maximum(size // int(s), 1)
        split = np.flatnonzero(k > 1)
        # Pull round: k * id_bits per follower — the one-id baseline
        # plus (k - 1) extras for each of a splitting cluster's size - 1
        # followers.
        extra = np.bincount(
            lr[split],
            weights=((k[split] - 1) * (size[split] - 1)).astype(np.float64),
            minlength=A,
        ).astype(np.int64)
        self._charge(
            act, n_foll, (n_foll + extra) * self.sizes.id_bits, fan=fan
        )
        if self.overlay is not None:
            self._fold_clock(g, fr, fc, fl)

        keep = np.flatnonzero(k == 1)  # leaders of unsplit clusters
        rows_u, cols_u, sizes_u = lr[keep], m.c[m.lead[keep]], size[keep]
        if not len(split):
            return rows_u, cols_u, sizes_u
        # Members of the splitting clusters, through a per-segment flag.
        splitting = np.zeros(A * n, dtype=bool)
        splitting[m.flat[m.lead[split]]] = True
        sel = np.flatnonzero(splitting[m.seg])
        # Sort them by (segment, uid): uid is injective per replication,
        # so seg * n + uid is a collision-free combined key — one sort
        # instead of a lexsort.  Segments then come in leader order, the
        # order of ``split``.
        pos = self._global(g, m.flat[sel])
        order = np.argsort(m.seg[sel] * np.int64(n) + self.uid.ravel()[pos])
        sel, pos = sel[order], pos[order]
        chunk, last = split_chunks(size[split], k[split])
        heads = sel[last]
        lead_r, lead_c = m.r[heads], m.c[heads]
        active = self.active.ravel()
        old_active = active[self._global(g, m.seg[heads])]  # read before writes
        self._relead(g, m, sel, lead_c[chunk])
        active[pos[last]] = old_active
        self._leaders += len(last) - len(split)
        return (
            np.concatenate((rows_u, lead_r)),
            np.concatenate((cols_u, lead_c)),
            np.concatenate((sizes_u, np.diff(last, prepend=-1))),
        )

    def _senders(self, g: np.ndarray, m: _Members, active_only: bool):
        """The pushing members' ``(rows, cols, leader cols, per-rep
        count)``: every member, or (``active_only``) the members of
        active clusters."""
        A = len(g)
        if active_only:
            # Indices, not a mask: gathering through a random mask is much slower.
            idx = np.flatnonzero(self.active.ravel()[self._global(g, m.seg)])
            if len(idx) < len(m.flat):
                s_r = m.r[idx]
                return s_r, m.c[idx], m.ldr[idx], _row_counts(s_r, A)
        return m.r, m.c, m.ldr, m.n_memb(A)

    def _uid_at(self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """uids at local rep rows ``rows``, node columns ``cols``."""
        if len(g) != self.reps:
            rows = g[rows]
        return self.uid.ravel()[rows * self.n + cols]

    def cluster_push(self, act, senders: str, reduce: str):
        """ClusterPUSH (two rounds: push + relay-to-leader).

        ``senders`` selects the pushing members: ``"active"`` (members
        of active clusters) or ``"clustered"`` (every member).  Returns
        the leaders' receipts as a ``(rows, cols, ids)`` triplet in
        row-major leader order: each leader that received something and
        the cluster ID (a leader column) digested there, the batched
        :class:`repro.core.primitives.ClusterPushOutcome`.
        """
        if reduce not in ("min", "any"):
            raise ValueError(f"reduce must be 'min' or 'any', got {reduce!r}")
        if senders not in ("active", "clustered"):
            raise ValueError(f"senders must be 'active' or 'clustered', got {senders!r}")
        g = np.asarray(act)
        A, n = len(g), self.n
        m = self._members(act)
        s_r, s_c, s_ldr, n_send = self._senders(g, m, senders == "active")

        targets = self._draw_targets(s_c)  # voids charged, not delivered
        if self.graph is None:  # complete graph: every push arrives
            dst, vals, d_r = s_r * n + targets, s_ldr, s_r
        else:
            valid = targets >= 0
            dst = (s_r * n + targets)[valid]
            vals, d_r = s_ldr[valid], s_r[valid]
        self._charge(act, n_send, n_send * self.sizes.id_bits, dst)
        if self.overlay is not None:  # void -1 targets never fold the dst
            self._fold_clock(g, s_r, s_c, targets)
        if reduce == "min":  # each member pushes its cluster's ID
            d1, v1 = self._receive_min_pairs(
                dst, vals, self._uid_at(g, d_r, vals), A * n
            )
        else:
            d1, v1 = self._receive_any_pairs(dst, vals, A * n)

        recv_F = m.flatF[d1]
        cl_w = np.flatnonzero(recv_F != UNCLUSTERED)  # clustered receivers
        d_cl, F_cl = d1[cl_w], recv_F[cl_w]
        r_cl, c_cl = self._rowcol(d_cl)
        own = F_cl == c_cl
        lead_w = cl_w[own]  # leaders holding their own digest

        # Relay round: followers holding a digest push it to their leader
        # (the follower's segment is exactly the leader's flat position).
        rel = np.flatnonzero(~own)
        rel_r = r_cl[rel]
        rel_dst = d_cl[rel] - c_cl[rel] + F_cl[rel]
        rel_vals = v1[cl_w[rel]]
        n_rel = _row_counts(rel_r, A)
        self._charge(act, n_rel, n_rel * self.sizes.id_bits, rel_dst)
        if self.overlay is not None:  # relayers contact their own leader
            self._fold_clock(g, rel_r, c_cl[rel], F_cl[rel])
        if reduce == "min":
            d2, v2 = self._receive_min_pairs(
                rel_dst, rel_vals, self._uid_at(g, rel_r, rel_vals), A * n
            )
        else:
            d2, v2 = self._receive_any_pairs(rel_dst, rel_vals, A * n)

        # Combine relayed digests with the leaders' own first-round ones.
        cand_d = np.concatenate((d2, d1[lead_w]))
        cand_v = np.concatenate((v2, v1[lead_w]))
        if reduce == "min":
            keys = self._uid_at(g, self._rowcol(cand_d)[0], cand_v)
            lead_d, lead_v = self._receive_min_pairs(cand_d, cand_v, keys, A * n)
        else:
            # Relayed digests win over a leader's own receipt (the
            # sequential combine order); at most two candidates per dst.
            pref = np.zeros(len(cand_d), dtype=np.int64)
            pref[len(d2):] = 1
            order = np.argsort(cand_d * np.int64(2) + pref)
            heads = order[_run_heads(cand_d[order])]
            lead_d, lead_v = cand_d[heads], cand_v[heads]
        return (*self._rowcol(lead_d), lead_v)

    def cluster_merge(self, act, m_r: np.ndarray, m_c: np.ndarray, m_target: np.ndarray) -> None:
        """ClusterMerge (one round): the clusters led by node columns
        ``m_c`` at local rows ``m_r`` merge into the (same-rep) cluster
        led by node column ``m_target``; a rep with no merging cluster
        gets the sequential idle round (empty pull set)."""
        g = np.asarray(act)
        A, n = len(g), self.n
        keep = m_target != m_c
        m_r, m_c, m_target = m_r[keep], m_c[keep], m_target[keep]
        if len(m_c) == 0:  # nothing merges: the (empty) pull round
            self.idle_round(g)
            return
        base = m_r * n  # local rep row * n
        m_flat = base + m_c

        merging = np.zeros(A * n, dtype=bool)
        merging[m_flat] = True
        target = np.zeros(A * n, dtype=np.int64)
        target[m_flat] = m_target
        # Resolve merge chains (A -> B -> C) at the leader level so the
        # member repoint below lands directly on final leaders — this is
        # the only place follow chains ever appear (see module docs).
        t = m_target.copy()
        for _ in range(_MAX_MERGE_HOPS):
            chained = merging[base + t]
            if not chained.any():
                break
            t[chained] = target[(base + t)[chained]]
        else:
            raise RuntimeError(
                f"merge chains not resolved in {_MAX_MERGE_HOPS} hops (cycle?)"
            )
        target[m_flat] = t

        m = self._members(act)
        mw = np.flatnonzero(merging[m.seg])  # merging-cluster members
        pull = mw[~m.is_l[mw]]  # their followers pull the new leader ID
        n_pull = _row_counts(m.r[pull], A)
        self._charge(act, n_pull, n_pull * self.sizes.id_bits, m.seg[pull])
        if self.overlay is not None:
            self._fold_clock(g, m.r[pull], m.c[pull], m.ldr[pull])
        self.active.ravel()[self._global(g, m_flat)] = False
        self._relead(g, m, mw, target[m.seg[mw]])
        self._leaders -= len(m_flat)

    def cluster_share(self, act, informed: np.ndarray) -> np.ndarray:
        """ClusterShare(rumor) (two rounds); returns the updated informed
        mask (a fresh array)."""
        g = np.asarray(act)
        A = len(g)
        informed = informed.copy()
        flat_inf = informed.ravel()
        m = self._members(act)

        # Informed followers push the rumor to their leader.
        # Indices, not a mask: gathering through a random mask is much slower.
        send = np.flatnonzero(m.foll & flat_inf[m.flat])
        arrived = m.seg[send]
        s_r = m.r[send]
        n_send = _row_counts(s_r, A)
        self._charge(act, n_send, n_send * self.sizes.rumor_bits, arrived)
        if self.overlay is not None:
            self._fold_clock(g, s_r, m.c[send], m.ldr[send])
        flat_inf[arrived] = True

        # All followers pull; leaders of informed clusters answer.
        responds = np.flatnonzero(m.foll & flat_inf[m.seg])
        n_resp = _row_counts(m.r[responds], A)
        self._charge(
            act, n_resp, n_resp * self.sizes.rumor_bits, fan=m.size_fan(A, self.n)
        )
        if self.overlay is not None:
            self._fold_clock(g, m.r[m.foll], m.c[m.foll], m.ldr[m.foll])
        flat_inf[m.flat[responds]] = True
        return informed

    # ------------------------------------------------------------------
    # Recruiting rounds (Algorithm 1 lines 9-10 / 26)
    # ------------------------------------------------------------------

    def grow_push_round(self, act, *, active_only: bool = True) -> None:
        """One PUSH-gossip recruiting round: (active-)cluster members push
        their cluster ID; unclustered receivers join a random received
        one."""
        g = np.asarray(act)
        A, n = len(g), self.n
        m = self._members(act)
        s_r, s_c, s_ldr, n_send = self._senders(g, m, active_only)
        targets = self._draw_targets(s_c)
        if self.graph is None:  # complete graph: every push arrives
            dst, vals = s_r * n + targets, s_ldr
        else:
            valid = targets >= 0
            dst, vals = (s_r * n + targets)[valid], s_ldr[valid]
        self._charge(act, n_send, n_send * self.sizes.id_bits, dst)
        if self.overlay is not None:
            self._fold_clock(g, s_r, s_c, targets)
        # Only unclustered receivers consult the digest (to join), so the
        # reduction runs over their deliveries alone; per receiver the
        # delivery multiset is unchanged by the filter.
        # Indices, not a mask: gathering through a random mask is much slower.
        u = np.flatnonzero(m.flatF[dst] == UNCLUSTERED)
        if len(u):
            # The digest's ordered scatter, written straight into
            # ``follow``: joiners adopt the last-written sender's leader
            # pointer, which already aims at a true leader — no chain to
            # compress.
            w = u[self._any_order(len(u), A * n)]
            self.follow.ravel()[self._global(g, dst[w])] = vals[w]
            self._follow_ver += 1

    def unclustered_pull_round(self, act) -> np.ndarray:
        """One PULL round: unclustered nodes pull from a random contact;
        clustered responders answer with their leader's ID.  Returns the
        joiners per row of ``act``."""
        g, F = self._gather(act)
        A, n = len(g), self.n
        flatF = F.ravel()
        uflat = np.flatnonzero(flatF == UNCLUSTERED)
        p_r, p_c = self._rowcol(uflat)
        targets = self._draw_targets(p_c)
        valid = np.flatnonzero(targets >= 0)
        t_flat = p_r[valid] * n + targets[valid]
        resp_F = flatF[t_flat]
        hit = np.flatnonzero(resp_F != UNCLUSTERED)  # clustered responders
        joined = valid[hit]
        n_resp = _row_counts(p_r[joined], A)
        # Pull requests are free; every arrived request counts as fan-in.
        self._charge(act, n_resp, n_resp * self.sizes.id_bits, t_flat)
        if self.overlay is not None:
            self._fold_clock(g, p_r, p_c, targets)
        if len(joined):
            self.follow.ravel()[self._global(g, uflat[joined])] = resp_F[hit]
            self._follow_ver += 1
        return n_resp


# ----------------------------------------------------------------------
# Batch runners (registered on the cluster1/cluster2 AlgorithmSpecs)
# ----------------------------------------------------------------------


def _share_outcome(name: str, state: ClusterBatch, sources: np.ndarray) -> BatchOutcome:
    """ClusterShare from each row's source, then the chunk's outcome.

    Cluster runners run their fixed phase schedule, never an
    early-completion watch, so ``completion_round`` stays -1 (mirrors
    the sequential reports, whose spread_rounds equals rounds).  The
    final sample adds the informed fraction, now known.
    """
    informed = np.zeros((state.reps, state.n), dtype=bool)
    informed[np.arange(state.reps), sources] = True
    counts = phases.share(state, informed).sum(axis=1)
    return state.outcome(
        name,
        counts,
        counts == state.n,
        final={"informed": float(counts.sum() / (state.reps * state.n))},
    )


def batched_cluster1(
    n: int,
    reps: int,
    rng: np.random.Generator,
    *,
    message_bits: int = 256,
    source: "int | None" = 0,
    params: Optional[Cluster1Params] = None,
    profile: Profile = LAPTOP,
    graph: Optional[ContactGraph] = None,
    telemetry=None,
    overlay=None,
) -> BatchOutcome:
    """Cluster1 (Algorithm 1), ``reps`` replications at once."""
    p = params if params is not None else profile.cluster1(n)
    state = ClusterBatch(
        n,
        reps,
        rng,
        message_bits=message_bits,
        graph=graph,
        telemetry=telemetry,
        overlay=overlay,
    )
    sources = resolve_sources(source, reps, n, rng)
    phases.cluster1_phases(state, p)
    return _share_outcome("cluster1", state, sources)


def batched_cluster2(
    n: int,
    reps: int,
    rng: np.random.Generator,
    *,
    message_bits: int = 256,
    source: "int | None" = 0,
    params: Optional[Cluster2Params] = None,
    profile: Profile = LAPTOP,
    graph: Optional[ContactGraph] = None,
    telemetry=None,
    overlay=None,
) -> BatchOutcome:
    """Cluster2 (Algorithm 2, the paper's Theorem 2 algorithm), ``reps``
    replications at once."""
    p = params if params is not None else profile.cluster2(n)
    p.check_n(n)
    state = ClusterBatch(
        n,
        reps,
        rng,
        message_bits=message_bits,
        graph=graph,
        telemetry=telemetry,
        overlay=overlay,
    )
    sources = resolve_sources(source, reps, n, rng)
    phases.cluster2_phases(state, p)
    return _share_outcome("cluster2", state, sources)
