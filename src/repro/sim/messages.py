"""Message-size model (bit accounting).

Section 2 of the paper: "every message carries either the information to be
broadcast, a node count, or O(1) node IDs".  We charge messages by content:

* ``id_bits`` per node ID (``O(log n)``, from the polynomial ID space);
* ``count_bits`` per node count (``ceil(log2(n+1))``);
* ``rumor_bits`` for the broadcast payload (``b = Omega(log n)``);
* one bit for a coin flip / status flag.

The only super-constant messages in the paper are the ``ClusterResize``
responses, which carry ``floor(s'/s)`` leader IDs (footnote 2, Section 3.2)
and ``ClusterShare`` of the rumor; both are charged exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.sim.ids import id_bits

#: Default rumor size in bits.  Must be Omega(log n); 256 comfortably covers
#: every ``n`` used in the experiments.
DEFAULT_RUMOR_BITS = 256


@dataclass(frozen=True)
class MessageSizes:
    """Bit sizes of the message kinds used by all algorithms.

    Parameters
    ----------
    n:
        Network size; determines the ID and counter widths.
    rumor_bits:
        Payload size ``b`` of the broadcast message.
    id_space_exponent:
        Exponent of the polynomial ID space (see :mod:`repro.sim.ids`).
    """

    n: int
    rumor_bits: int = DEFAULT_RUMOR_BITS
    id_space_exponent: int = 3

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.rumor_bits < 1:
            raise ValueError(f"rumor_bits must be positive, got {self.rumor_bits}")

    # The two widths are computed once per instance: ``cached_property``
    # stores into the instance ``__dict__``, which a frozen dataclass
    # without slots allows, and fields alone decide ``==`` and ``hash``.
    @cached_property
    def id_bits(self) -> int:
        """Bits for one node ID."""
        return id_bits(self.n, self.id_space_exponent)

    @cached_property
    def count_bits(self) -> int:
        """Bits for a node count in ``[0, n]``."""
        return max(1, math.ceil(math.log2(self.n + 1)))

    @property
    def flag_bits(self) -> int:
        """Bits for a boolean (activation coin, dissolve verdict, ...)."""
        return 1

    def ids(self, k: int) -> int:
        """Bits for a message carrying ``k`` node IDs."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return k * self.id_bits

    def rumor(self) -> int:
        """Bits for a message carrying the broadcast payload."""
        return self.rumor_bits

    def counter(self) -> int:
        """Bits for a round/state counter (used by median-counter [10])."""
        # Counters in [10] are O(log log n); a count_bits field is a safe
        # over-approximation and keeps the accounting simple.
        return self.count_bits
