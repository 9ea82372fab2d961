"""Oblivious-adversary failure patterns (paper, Section 8).

The adversary fails ``F`` nodes *before* the execution starts and is
oblivious to the algorithm's randomness.  Because the paper's algorithms
are symmetric in the nodes, any oblivious choice is equivalent to a random
one (Theorem 19's proof); we still provide several patterns so tests can
confirm that equivalence empirically.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.catalogue import Catalogue
from repro.sim.batch import is_integer
from repro.sim.network import Network
from repro.sim.rng import SeedLike, make_rng


def fail_random(net: Network, count: int, rng: SeedLike = None) -> np.ndarray:
    """Fail ``count`` uniformly random nodes; returns their indices."""
    _check_count(net.n, count)
    idx = make_rng(rng).choice(net.n, size=count, replace=False)
    net.fail(idx)
    return np.sort(idx)

def fail_prefix(net: Network, count: int) -> np.ndarray:
    """Fail nodes ``0..count-1`` (a fixed, index-based oblivious choice)."""
    _check_count(net.n, count)
    idx = np.arange(count)
    net.fail(idx)
    return idx


def fail_smallest_uids(net: Network, count: int) -> np.ndarray:
    """Fail the ``count`` nodes with the smallest uids.

    An adversary targeting small IDs is a natural worst-case probe for the
    "merge towards the smallest ID" rules — still oblivious because uids
    are assigned independently of the algorithm's coin flips.
    """
    _check_count(net.n, count)
    idx = np.argsort(net.uid)[:count]
    net.fail(idx)
    return np.sort(idx)


def fail_fraction(net: Network, fraction: float, rng: SeedLike = None) -> np.ndarray:
    """Fail a ``fraction`` of all nodes uniformly at random."""
    return fail_random(net, _fraction_count(net.n, fraction), rng)


def _prefix_pattern(net: Network, count: int, rng: SeedLike = None) -> np.ndarray:
    """Named-pattern wrapper for :func:`fail_prefix`.

    The prefix choice is deterministic; ``rng`` is accepted (every pattern
    shares the ``(net, count, rng)`` signature) and explicitly unused.
    """
    del rng  # deterministic pattern: the rng is deliberately ignored
    return fail_prefix(net, count)


def _smallest_uids_pattern(net: Network, count: int, rng: SeedLike = None) -> np.ndarray:
    """Named-pattern wrapper for :func:`fail_smallest_uids`.

    Deterministic given the network's uid assignment; ``rng`` is accepted
    for signature uniformity and explicitly unused.
    """
    del rng  # deterministic pattern: the rng is deliberately ignored
    return fail_smallest_uids(net, count)


def _fraction_pattern(net: Network, count: float, rng: SeedLike = None) -> np.ndarray:
    """Named-pattern wrapper for :func:`fail_fraction`: ``count`` is the
    fraction in [0, 1) of all nodes to fail uniformly at random."""
    return fail_fraction(net, count, rng)


PATTERNS = Catalogue("failure pattern", {
    "random": fail_random,
    "prefix": _prefix_pattern,
    "smallest-uids": _smallest_uids_pattern,
    "fraction": _fraction_pattern,
})


def apply_pattern(net: Network, pattern: str, count: float, rng: SeedLike = None) -> np.ndarray:
    """Apply a named failure pattern; returns failed indices.

    ``count`` is a node count for every pattern except ``"fraction"``,
    where it is the fraction in [0, 1) of all nodes to fail.
    """
    return PATTERNS.lookup(pattern)(net, count, rng)


def check_failures(n: int, pattern: str, count: float) -> None:
    """Check a named pattern (even at zero failures) and, when non-zero,
    its count against ``n`` nodes, before any network exists."""
    PATTERNS.lookup(pattern)
    if count:
        _check_count(n, _fraction_count(n, count) if pattern == "fraction" else count)


def _fraction_count(n: int, fraction: float) -> int:
    if not isinstance(fraction, numbers.Real) or not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    return int(round(fraction * n))


def _check_count(n: int, count: int) -> None:
    if not is_integer(count):
        raise ValueError(
            f"failure count must be an integer, got {count!r}; to fail a "
            "fraction of the nodes use failure_pattern='fraction'"
        )
    if count < 0:
        raise ValueError(f"failure count must be non-negative, got {count}")
    if count >= n:
        raise ValueError(
            f"cannot fail {count} of {n} nodes; at least one must survive"
        )
