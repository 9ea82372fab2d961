"""Vectorised receiver-side reductions.

After a round of pushes, each destination node holds the multiset of values
pushed to it this round.  The paper's algorithms only ever need one of a few
O(1)-size reductions of that multiset per receiver:

* *any* — a uniformly random received value ("set follow to any received
  ID", Algorithm 1 line 10; "random received ID", Algorithm 2 line 26);
* *min by key* — the received value with the smallest uid ("smallest
  received ID", Algorithm 1 lines 19/24);
* *counts* — how many messages arrived (ClusterSize);
* *or* — did anything arrive at all.

Keeping receivers down to an O(1)-size digest is also what keeps relayed
messages at O(log n) bits (a receiver relays its digest, not the multiset).

All functions take parallel arrays ``dsts`` / ``values`` (one entry per
delivered message) and return dense per-node arrays of length ``n`` with a
sentinel for nodes that received nothing.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Sentinel for "received nothing" in index-valued outputs.
NOTHING = -1


def receive_counts(n: int, dsts: np.ndarray) -> np.ndarray:
    """Number of messages received per node."""
    return np.bincount(dsts, minlength=n).astype(np.int64)


def receive_or(n: int, dsts: np.ndarray) -> np.ndarray:
    """Boolean mask: node received at least one message."""
    out = np.zeros(n, dtype=bool)
    out[dsts] = True
    return out


def receive_any(
    n: int,
    dsts: np.ndarray,
    values: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """A uniformly random received value per node (NOTHING if none).

    Implementation: randomly permute the deliveries, then let later writes
    win; with a uniform permutation the surviving write is uniform among
    each node's deliveries.
    """
    out = np.full(n, NOTHING, dtype=np.int64)
    if len(dsts) == 0:
        return out
    order = rng.permutation(len(dsts))
    out[dsts[order]] = values[order]
    return out


def receive_min_by_key(
    n: int,
    dsts: np.ndarray,
    values: np.ndarray,
    keys: np.ndarray,
) -> np.ndarray:
    """Per node, the received value whose key is smallest (NOTHING if none).

    ``keys`` (integers, typically uids) are compared; ``values`` (node
    indices) are returned.  Ties go to the smaller value, which is
    deterministic and harmless since uids are unique.  Two scatter-min
    passes, no sort: the smallest key per destination, then the
    smallest value among the deliveries that carry it.
    """
    out = np.full(n, NOTHING, dtype=np.int64)
    if len(dsts) == 0:
        return out
    top = np.iinfo(np.int64).max
    best_key = np.full(n, top, dtype=np.int64)
    np.minimum.at(best_key, dsts, keys)
    won = keys == best_key[dsts]
    best = np.full(n, top, dtype=np.int64)
    np.minimum.at(best, dsts[won], values[won])
    out[dsts] = best[dsts]
    return out


def receive_all_sorted(
    dsts: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group deliveries by destination.

    Returns ``(unique_dsts, start_offsets, sorted_values)`` such that the
    values received by ``unique_dsts[i]`` are
    ``sorted_values[start_offsets[i]:start_offsets[i+1]]``.  Used by
    node-granular protocols (Name-Dropper) where the full multiset matters.
    """
    if len(dsts) == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    order = np.argsort(dsts, kind="stable")
    d = dsts[order]
    v = values[order]
    uniq, starts = np.unique(d, return_index=True)
    offsets = np.append(starts, len(d)).astype(np.int64)
    return uniq.astype(np.int64), offsets, v
