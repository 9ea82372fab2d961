"""The cluster coordination macros (paper, Section 3.2).

Each primitive is a constant number of synchronous rounds built from
follower PUSHes to the leader and follower PULLs from the leader (the
leader's address is known to all members — that is what ``follow`` is).
All message sizes follow Section 2: one ID, one count, one flag, or — only
in ``ClusterResize`` — ``floor(s'/s)`` IDs (footnote 2), and the rumor in
``ClusterShare``.

Exact round/message costs (asserted by the unit tests):

=====================  ======  =====================================
primitive              rounds  messages
=====================  ======  =====================================
ClusterActivate        1       one flag pull per follower
ClusterSize            2       one ID push + one count pull per follower
ClusterDissolve(s)     2       one ID push + one ID pull per follower
ClusterResize(s)       2       one ID push + one k·ID pull per follower
ClusterPUSH            2       one ID push per member of a pushing
                               cluster + one ID relay per follower that
                               received something
ClusterMerge           1       one ID pull per follower of a merging
                               cluster
ClusterShare(rumor)    2       one rumor push per informed follower +
                               one rumor pull per follower of an
                               informed cluster
=====================  ======  =====================================

Receivers of a ClusterPUSH reduce their per-round delivery multiset to a
single O(log n)-bit digest (the minimum-uid or a uniformly random received
ID) before relaying — this is what keeps every relayed message minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import UNCLUSTERED, Clustering, split_chunks
from repro.sim.delivery import NOTHING, receive_any, receive_min_by_key
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# ClusterActivate
# ----------------------------------------------------------------------


def cluster_activate(sim: Simulator, cl: Clustering, p: float) -> None:
    """Activate every cluster independently with probability ``p``.

    One round: each leader flips a ``p``-biased coin; followers pull the
    outcome.  Clusters stay (de)activated until the next call.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"activation probability must be in [0,1], got {p}")
    leaders = cl.leaders()
    cl.active[:] = False
    if len(leaders) == 0:
        sim.idle_round("ClusterActivate")
        return
    cl.active[leaders] = sim.rng.random(len(leaders)) < p
    followers = cl.followers()
    with sim.round("ClusterActivate") as r:
        r.pull(followers, cl.follow[followers], sim.net.sizes.flag_bits)


def cluster_activate_all(sim: Simulator, cl: Clustering) -> None:
    """``ClusterActivate(1)`` — deterministic activation, still one round."""
    leaders = cl.leaders()
    cl.active[:] = False
    cl.active[leaders] = True
    followers = cl.followers()
    with sim.round("ClusterActivate") as r:
        r.pull(followers, cl.follow[followers], sim.net.sizes.flag_bits)


# ----------------------------------------------------------------------
# ClusterSize
# ----------------------------------------------------------------------


def cluster_size(sim: Simulator, cl: Clustering) -> np.ndarray:
    """Each cluster determines its size in two rounds.

    Returns the per-node size array (valid at leaders, see
    :meth:`Clustering.sizes`).
    """
    followers = cl.followers()
    sizes = sim.net.sizes
    with sim.round("ClusterSize:push") as r:
        r.push(followers, cl.follow[followers], sizes.id_bits)
    with sim.round("ClusterSize:pull") as r:
        r.pull(followers, cl.follow[followers], sizes.count_bits)
    return cl.sizes()


# ----------------------------------------------------------------------
# ClusterDissolve
# ----------------------------------------------------------------------


def cluster_dissolve(sim: Simulator, cl: Clustering, s: int) -> np.ndarray:
    """Dissolve every cluster smaller than ``s`` (two rounds).

    Followers push their IDs; the leader compares the count to ``s`` and
    answers each pull with its own ID (keep) or ∞ (dissolve).  Returns the
    indices of the dissolved leaders.
    """
    if s < 1:
        raise ValueError(f"size floor must be >= 1, got {s}")
    followers = cl.followers()
    sizes = sim.net.sizes
    with sim.round("ClusterDissolve:push") as r:
        r.push(followers, cl.follow[followers], sizes.id_bits)
    with sim.round("ClusterDissolve:pull") as r:
        r.pull(followers, cl.follow[followers], sizes.id_bits)
    counts = cl.sizes()
    leaders = cl.leaders()
    doomed = leaders[counts[leaders] < s]
    cl.disband(doomed)
    return doomed


# ----------------------------------------------------------------------
# ClusterResize
# ----------------------------------------------------------------------


def cluster_resize(sim: Simulator, cl: Clustering, s: int) -> int:
    """Split clusters so that no cluster exceeds ``2s - 1`` members.

    Two rounds.  A cluster of size ``s'`` is re-clustered by its leader
    into ``k = floor(s'/s)`` near-equal chunks of uid-sorted members; the
    largest uid in each chunk leads it.  Each follower pulls the list of
    the ``k`` new leader IDs (a ``k * id_bits`` message — the one
    super-constant message in the paper, footnote 2) and follows the
    smallest new-leader uid that is >= its own uid.

    Only called on clusters of size >= s (guaranteed by the callers via
    ClusterDissolve); clusters with ``k == 1`` are left intact.  Returns
    the number of clusters that actually split.  Every splitting cluster
    splits at once, through :func:`repro.core.clustering.split_chunks`,
    the kernel the ``(R, n)`` tier's ClusterResize shares.
    """
    if s < 1:
        raise ValueError(f"target size must be >= 1, got {s}")
    followers = cl.followers()
    sizes = sim.net.sizes
    with sim.round("ClusterResize:push") as r:
        r.push(followers, cl.follow[followers], sizes.id_bits)

    counts = cl.sizes()
    k_per_leader = np.maximum(counts // s, 1)

    # Followers pull k * id_bits each (k of their own cluster).
    with sim.round("ClusterResize:pull") as r:
        resp_bits = k_per_leader[cl.follow[followers]] * sizes.id_bits
        r.pull(followers, cl.follow[followers], resp_bits)

    # Apply the splits (the leaders' in-mind re-clustering).  k was fixed
    # before the pull, but the pull's commit may fire crashes, so who is
    # in each cluster, and hence its size, is read now.
    members = np.flatnonzero(cl.clustered_mask())
    members, starts = cl.by_cluster(members[k_per_leader[cl.follow[members]] > 1])
    leader = cl.follow[members]
    chunk, last = split_chunks(
        np.diff(starts, append=len(members)), k_per_leader[leader[starts]]
    )
    new_leaders = members[last]
    cl.active[new_leaders] = cl.active[leader[last]]
    cl.set_follow(members, new_leaders[chunk])
    cl.check_invariants()
    return len(starts)


# ----------------------------------------------------------------------
# ClusterPUSH
# ----------------------------------------------------------------------


@dataclass
class ClusterPushOutcome:
    """Receiver-side digests of one ClusterPUSH.

    ``leader_receipt[l]`` — for each leader ``l``, the digest (a node
    index, interpreted as a cluster ID via its uid) assembled from its own
    receipts and its followers' relays; ``NOTHING`` if the cluster received
    no push (and at every non-leader).  Recruiting unclustered nodes is
    :func:`grow_push_round`'s job, not ClusterPUSH's.
    """

    leader_receipt: np.ndarray


def cluster_push(
    sim: Simulator,
    cl: Clustering,
    *,
    senders: np.ndarray,
    reduce: str = "min",
    label: str = "ClusterPUSH",
) -> ClusterPushOutcome:
    """All ``senders`` push their cluster's ID to a uniformly random node.

    Two rounds: the push itself, then clustered receivers relay their
    digest to their leader.  ``senders`` must be clustered alive nodes
    (typically: all members of the active clusters).  ``reduce`` selects
    the digest rule: ``"min"`` (smallest received cluster ID, by uid) or
    ``"any"`` (uniformly random received ID).

    The decision *whether* a cluster pushes was distributed by the previous
    ClusterActivate (its one round of coordination), and the payload — the
    cluster ID — is every member's ``follow`` value, so no extra directive
    round is needed.
    """
    if reduce not in ("min", "any"):
        raise ValueError(f"reduce must be 'min' or 'any', got {reduce!r}")
    n = sim.net.n
    uid = sim.net.uid
    senders = np.asarray(senders, dtype=np.int64)
    payload = cl.follow[senders]  # each member pushes its cluster's ID

    dsts = sim.random_targets(senders)
    with sim.round(f"{label}:push") as r:
        delivery = r.push(senders, dsts, sim.net.sizes.id_bits)

    delivered_values = _delivered_payload(delivery.srcs, senders, payload)
    if reduce == "min":
        digest = receive_min_by_key(n, delivery.dsts, delivered_values, uid[delivered_values])
    else:
        digest = receive_any(n, delivery.dsts, delivered_values, sim.rng)

    # Relay round: followers holding a digest push it to their leader.
    holder = digest != NOTHING
    relayers = np.flatnonzero(holder & cl.follower_mask())
    with sim.round(f"{label}:relay") as r:
        relay_delivery = r.push(relayers, cl.follow[relayers], sim.net.sizes.id_bits)

    relayed_values = digest[relay_delivery.srcs]
    if reduce == "min":
        at_leader = receive_min_by_key(
            n, relay_delivery.dsts, relayed_values, uid[relayed_values]
        )
    else:
        at_leader = receive_any(n, relay_delivery.dsts, relayed_values, sim.rng)

    # Combine with the leader's own direct receipt.
    leader_receipt = np.full(n, NOTHING, dtype=np.int64)
    lead_mask = cl.leader_mask()
    own = np.where(lead_mask, digest, NOTHING)
    if reduce == "min":
        take_own = (own != NOTHING) & (
            (at_leader == NOTHING) | (uid[own] < uid[at_leader])
        )
        leader_receipt = np.where(take_own, own, at_leader)
    else:
        # Uniform-enough tie-break: prefer the relayed digest when present,
        # otherwise the leader's own receipt.
        leader_receipt = np.where(at_leader != NOTHING, at_leader, own)
    return ClusterPushOutcome(np.where(lead_mask, leader_receipt, NOTHING))


def _delivered_payload(
    delivered_srcs: np.ndarray, senders: np.ndarray, payload: np.ndarray
) -> np.ndarray:
    """Payload values for the delivered subset of a push.

    ``payload`` is parallel to ``senders`` and was captured *before* the
    round (``follow`` may mutate afterwards); senders are unique within a
    round (one initiation each), so a scatter table maps the engine's
    delivered source indices back to their payloads.
    """
    if len(senders) == 0:
        return np.empty(0, dtype=np.int64)
    table = np.full(int(senders.max()) + 1, NOTHING, dtype=np.int64)
    table[senders] = payload
    return table[delivered_srcs]


# ----------------------------------------------------------------------
# ClusterMerge
# ----------------------------------------------------------------------


def cluster_merge(sim: Simulator, cl: Clustering, new_leader: np.ndarray) -> int:
    """Merge clusters into new leaders (one round).

    ``new_leader`` is a per-node array, meaningful at leaders:
    ``new_leader[l] == t`` merges the cluster led by ``l`` into the cluster
    of node ``t``; ``NOTHING`` (or ``l`` itself) leaves it alone.

    Followers of merging clusters pull the new leader's ID from their
    current leader; the leader updates its own follow the same way.
    Pointer chains created by simultaneous merges are path-compressed
    (equivalent to the constant number of resolution pulls the paper
    elides; DESIGN.md substitution 3).  Returns the number of merges.
    """
    new_leader = np.asarray(new_leader, dtype=np.int64)
    leaders = cl.leaders()
    targets = new_leader[leaders]
    merging = leaders[(targets != NOTHING) & (targets != leaders)]
    if len(merging) == 0:
        sim.idle_round("ClusterMerge")
        return 0

    followers = cl.followers()
    merging_mask = np.zeros(cl.n, dtype=bool)
    merging_mask[merging] = True
    pulling = followers[merging_mask[cl.follow[followers]]]
    with sim.round("ClusterMerge") as r:
        r.pull(pulling, cl.follow[pulling], sim.net.sizes.id_bits)

    # Apply: members (and the leader itself) adopt the new leader.
    member_mask = merging_mask[np.where(cl.follow >= 0, cl.follow, 0)] & cl.clustered_mask()
    old_leaders = cl.follow[member_mask]
    cl.set_follow(member_mask, new_leader[old_leaders])
    cl.active[merging] = False
    cl.compress()
    cl.check_invariants()
    return int(len(merging))


# ----------------------------------------------------------------------
# ClusterShare
# ----------------------------------------------------------------------


def cluster_share_rumor(
    sim: Simulator, cl: Clustering, informed: np.ndarray
) -> np.ndarray:
    """Share the rumor within every cluster (two rounds).

    Informed followers push the rumor to their leader; then all followers
    of (now-)informed clusters pull it.  Returns the updated informed mask.
    The rumor costs ``rumor_bits`` per message.
    """
    informed = np.asarray(informed, dtype=bool).copy()
    sizes = sim.net.sizes
    followers = cl.followers()

    senders = followers[informed[followers]]
    with sim.round("ClusterShare:push") as r:
        delivery = r.push(senders, cl.follow[senders], sizes.rumor_bits)
    informed[delivery.dsts] = True

    leader_informed = np.zeros(cl.n, dtype=bool)
    lead = cl.leaders()
    leader_informed[lead] = informed[lead]
    with sim.round("ClusterShare:pull") as r:
        responds = leader_informed[cl.follow[followers]]
        answered = r.pull(followers, cl.follow[followers], sizes.rumor_bits, responds)
    informed[followers[answered.answered]] = True
    return informed


# ----------------------------------------------------------------------
# Raw gossip steps used by the recruiting phases
# ----------------------------------------------------------------------


def grow_push_round(
    sim: Simulator, cl: Clustering, *, active_only: bool = True, label: str = "GrowPush"
) -> int:
    """One PUSH-gossip recruiting round (Algorithm 1 lines 9-10).

    Every member of an (active) cluster pushes its cluster ID to a random
    node; unclustered receivers join a uniformly random received cluster.
    Returns the number of newly clustered nodes.
    """
    mask = cl.active_member_mask() if active_only else cl.clustered_mask()
    senders = np.flatnonzero(mask)
    payload = cl.follow[senders]
    dsts = sim.random_targets(senders)
    with sim.round(label) as r:
        delivery = r.push(senders, dsts, sim.net.sizes.id_bits)
    adopted = receive_any(
        cl.n, delivery.dsts, _delivered_payload(delivery.srcs, senders, payload), sim.rng
    )
    joiners = np.flatnonzero((adopted != NOTHING) & cl.unclustered_mask())
    cl.set_follow(joiners, adopted[joiners])
    cl.compress()
    return int(len(joiners))


def unclustered_pull_round(sim: Simulator, cl: Clustering, label: str = "UnclusteredPull") -> int:
    """One PULL round for unclustered nodes (Algorithm 1 line 26).

    Each unclustered node pulls from a uniformly random node; clustered
    responders answer with their follow value (their leader — so the
    puller joins the leader directly).  Returns the number of joiners.
    """
    pullers = cl.unclustered()
    dsts = sim.random_targets(pullers)
    responds = cl.clustered_mask()[dsts]
    with sim.round(label) as r:
        answered = r.pull(pullers, dsts, sim.net.sizes.id_bits, responds).answered
    joiners = pullers[answered]
    cl.set_follow(joiners, cl.follow[dsts[answered]])
    cl.compress()
    return int(len(joiners))
