"""Seeded randomness with independent substreams.

Every experiment in the reproduction is deterministic given its seed.  The
helpers here build :class:`numpy.random.Generator` instances from integer
seeds and derive independent child streams (one per algorithm phase, per
repetition, per node-protocol, ...) using ``SeedSequence.spawn`` so that
changing the number of draws in one phase never perturbs another.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an ``int``, an existing ``SeedSequence``, an existing
    ``Generator`` (returned unchanged), or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.default_rng(seed)


def spawn_rngs(parent: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from ``parent``.

    When ``parent`` is a ``Generator`` the children are seeded from draws of
    the parent (consuming parent state); otherwise they are spawned from a
    fresh ``SeedSequence`` so the parent remains untouched.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(parent, np.random.Generator):
        seeds = parent.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    if isinstance(parent, np.random.SeedSequence):
        seq = parent
    else:
        seq = np.random.SeedSequence(parent)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]


def seeds_for(base_seed: int, labels: Iterable[str]) -> dict:
    """Map each label to a deterministic derived integer seed.

    Used by the experiment runner so that e.g. ``("cluster2", n=4096,
    rep=3)`` always gets the same stream regardless of sweep order.
    """
    out = {}
    for label in labels:
        h = np.random.SeedSequence([base_seed, _stable_hash(label)])
        out[label] = int(h.generate_state(1)[0])
    return out


def _stable_hash(text: str) -> int:
    """A deterministic (non-cryptographic) 63-bit hash of ``text``.

    Python's builtin ``hash`` is salted per process, so it cannot be used
    for reproducible seeding.
    """
    acc = 1469598103934665603  # FNV-1a offset basis
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 1099511628211) & ((1 << 63) - 1)
    return acc


def derive_seed(base_seed: int, *parts: object) -> int:
    """Deterministically combine ``base_seed`` with arbitrary labels."""
    label = "/".join(str(p) for p in parts)
    return seeds_for(base_seed, [label])[label]
