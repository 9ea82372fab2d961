"""Scale profiles: the paper's asymptotic constants, made concrete.

Every threshold in the paper is stated asymptotically — seeds sampled with
probability ``1/(C log n)`` (Cluster1) or ``1/(C log^4 n)`` (Cluster2),
cluster-size floors ``C' log n`` / ``C' log^3 n``, squaring targets
``sqrt(n)/log n`` — with unspecified constants.  At laptop scale
(``n <= 2^18``) the polylog factors invert their intended ordering:
``log2^3 n = 4096 > sqrt(n)/log2^2 n = 16`` at ``n = 2^16``, so a literal
transcription degenerates (phases become empty or consume the whole
network).

We therefore ship two profiles:

* :data:`PAPER` — the literal formulas.  Correct in the asymptotic regime
  the proofs address; exposed so tests can check the formulas themselves
  and so users simulating astronomically large ``n`` analytically can read
  off thresholds.
* :data:`LAPTOP` — the same *control flow* with calibrated constants: each
  phase is non-degenerate for ``2^7 <= n <= 2^18``, the measured
  round-complexity grows as ``log log n``, Cluster2's message-complexity
  per node stays O(1), and all code paths (size control, deactivation,
  resize splits, squaring iterations) are exercised.

The key calibration idea for Cluster2/3: the paper keeps only a
``Theta(1/log n)`` fraction of nodes clustered during the merge phases so
that total messages stay ``O(n)``.  Over the laptop range, ``1/log2 n``
only varies between 1/7 and 1/18 — effectively a constant — so LAPTOP pins
the *clustered-fraction target* ``x*`` at 0.2 and derives seed probability,
deactivation margin and squaring step from it (documented per-field below).
This preserves the self-limiting growth mechanism of Lemma 10/11 while
keeping the concentration workable at small cluster sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.catalogue import Catalogue


def log2n(n: int) -> float:
    """``log2 n`` guarded for tiny n."""
    return math.log2(max(n, 2))


def loglog(n: int) -> float:
    """``log2 log2 n`` guarded for tiny n."""
    return math.log2(max(log2n(n), 2.0))


# ----------------------------------------------------------------------
# Per-algorithm parameter bundles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster1Params:
    """Knobs of Algorithm 1 (Cluster1), resolved for one ``n``.

    Attributes map to the paper:

    * ``seed_prob`` — line 7, ``1/(C log n)``;
    * ``grow_rounds`` — line 8, the ``Theta(log log n)`` PUSH iterations;
    * ``min_cluster_size`` — ``s = C' log n`` (line 12);
    * ``square_target`` — loop bound ``sqrt(n / log n)`` (line 20);
    * ``square_step`` — the ``s <- Theta(s^2)`` update;
    * ``merge_reps`` — "two repetitions" of MergeAllClusters, with a small
      safety cap for small-n tail events (DESIGN.md substitution 4);
    * ``pull_rounds`` — line 26, ``Theta(log log n)`` PULL iterations.
    """

    n: int
    seed_prob: float
    grow_rounds: int
    min_cluster_size: int
    square_target: float
    square_step: Callable[[int], int]
    merge_reps: int
    pull_rounds: int


@dataclass(frozen=True)
class Cluster2Params:
    """Knobs of Algorithm 2 (Cluster2), resolved for one ``n``.

    * ``seed_prob`` — line 8, ``1/(C log^4 n)``;
    * ``target_fraction`` — the clustered-fraction ``x*`` at which growth
      self-limits (``Theta(1/log n)`` in the paper);
    * ``big_size`` — the size floor for the growth check, ``C' log^3 n``
      (line 13);
    * ``growth_stop_factor`` — ``2 - 1/log n`` (line 14);
    * ``grow_rounds_cap`` — cap on grow iterations (``Theta(log log n)``);
    * ``square_floor`` — ``s = C' log^3 n`` (line 19);
    * ``square_target`` — loop bound ``sqrt(n)/log^2 n`` (line 27);
    * ``square_step`` — ``s <- Theta(s^2 / log n)``;
    * ``merge_reps`` — MergeAllClusters repetitions (cap included);
    * ``bounded_push_growth_stop`` — the 1.1 growth-factor stop (line 34);
    * ``bounded_push_rounds_cap`` — ``Theta(log log n)`` cap (line 30);
    * ``pull_rounds`` — final PULL iterations.
    """

    n: int
    seed_prob: float
    target_fraction: float
    big_size: int
    growth_stop_factor: float
    grow_rounds_cap: int
    square_floor: int
    square_target: float
    square_step: Callable[[int], int]
    merge_reps: int
    bounded_push_growth_stop: float
    bounded_push_rounds_cap: int
    pull_rounds: int

    @property
    def dissolve_floor(self) -> int:
        """SquareClusters opens with ClusterDissolve at this size:
        smaller clusters disband."""
        return max(2, self.square_floor // 2)

    def check_n(self, n: int) -> None:
        """Raise ``ValueError`` when ``n`` is below :attr:`dissolve_floor`:
        no cluster can reach it, so the square phase would disband every
        cluster and the run could only fail."""
        if n < self.dissolve_floor:
            raise ValueError(
                f"cluster2 needs n >= {self.dissolve_floor} (its square phase "
                f"disbands every smaller cluster), got n={n}"
            )


@dataclass(frozen=True)
class Cluster3Params:
    """Knobs of Algorithm 4 (Cluster3(Δ)), resolved for one ``n`` and ``Δ``.

    * ``delta`` — the fan-in bound;
    * ``target_size`` — ``Δ / C''``, the working cluster size;
    * ``square_until`` — grow/square until ``s >= sqrt(Δ log n)/C''``
      (line 2);
    * ``merge_activate_prob`` — ``10 s / (Δ/C'')`` (line 8), resolved at
      merge time from the current ``s``;
    * ``bounded_push_rounds_cap``, ``bounded_push_growth_stop`` — as in
      Cluster2's BoundedClusterPush but with continuous resize (line 14);
    * ``pull_rounds`` — final join phase.
    """

    n: int
    delta: int
    target_size: int
    square_until: float
    merge_activate_coeff: float
    bounded_push_growth_stop: float
    bounded_push_rounds_cap: int
    pull_rounds: int


@dataclass(frozen=True)
class PushPullParams:
    """Knobs of Algorithm 3 (ClusterPUSH-PULL(Δ))."""

    n: int
    delta: int
    main_iterations: int


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """A named resolution of all asymptotic constants."""

    name: str
    cluster1: Callable[[int], Cluster1Params]
    cluster2: Callable[[int], Cluster2Params]
    cluster3: Callable[[int, int], Cluster3Params]
    push_pull: Callable[[int, int], PushPullParams]


def _paper_cluster1(n: int) -> Cluster1Params:
    ln = log2n(n)
    ll = loglog(n)
    return Cluster1Params(
        n=n,
        seed_prob=1.0 / (4.0 * ln),
        grow_rounds=math.ceil(3 * ll) + 2,
        min_cluster_size=max(2, math.ceil(0.5 * ln)),
        square_target=math.sqrt(n / ln),
        square_step=lambda s: max(s + 1, (s * s) // 2),
        merge_reps=2,
        pull_rounds=math.ceil(2 * ll) + 2,
    )


def _paper_cluster2(n: int) -> Cluster2Params:
    ln = log2n(n)
    ll = loglog(n)
    return Cluster2Params(
        n=n,
        seed_prob=1.0 / (2.0 * ln**4),
        target_fraction=1.0 / ln,
        big_size=max(4, math.ceil(ln**3)),
        growth_stop_factor=2.0 - 1.0 / ln,
        grow_rounds_cap=math.ceil(4 * ll) + 4,
        square_floor=max(4, math.ceil(ln**3)),
        square_target=math.sqrt(n) / ln**2,
        square_step=lambda s: max(s + 1, math.ceil(s * s / ln)),
        merge_reps=2,
        bounded_push_growth_stop=1.1,
        bounded_push_rounds_cap=math.ceil(3 * ll) + 3,
        pull_rounds=math.ceil(2 * ll) + 2,
    )


def _paper_cluster3(n: int, delta: int) -> Cluster3Params:
    ln = log2n(n)
    ll = loglog(n)
    c2 = 8.0  # C''
    return Cluster3Params(
        n=n,
        delta=delta,
        target_size=max(2, int(delta / c2)),
        square_until=math.sqrt(delta * ln) / c2,
        merge_activate_coeff=10.0,
        bounded_push_growth_stop=1.1,
        bounded_push_rounds_cap=math.ceil(3 * ll) + 3,
        pull_rounds=math.ceil(2 * ll) + 2,
    )


def _paper_push_pull(n: int, delta: int) -> PushPullParams:
    rounds = math.ceil(2.0 * log2n(n) / math.log2(max(delta, 2))) + 2
    return PushPullParams(n=n, delta=delta, main_iterations=rounds)


PAPER = Profile(
    name="paper",
    cluster1=_paper_cluster1,
    cluster2=_paper_cluster2,
    cluster3=_paper_cluster3,
    push_pull=_paper_push_pull,
)


# LAPTOP: calibrated for 2^7 <= n <= 2^18.  See module docstring.

#: Clustered-fraction target x* for Cluster2/3 merge phases.  The paper's
#: Theta(1/log n) is ~[1/18, 1/7] over the laptop range; pinning 0.2 keeps
#: squaring growth (s -> s + x* s^2 / 2) meaningful at s ~ 10.
_LAPTOP_X_STAR = 0.2


def _laptop_cluster1(n: int) -> Cluster1Params:
    ln = log2n(n)
    ll = loglog(n)
    return Cluster1Params(
        n=n,
        seed_prob=1.0 / (2.0 * ln),
        grow_rounds=math.ceil(2 * ll) + 3,
        min_cluster_size=max(2, round(0.5 * ln)),
        square_target=math.sqrt(n / ln),
        square_step=lambda s: max(s + 1, (s * s) // 2),
        merge_reps=4,
        pull_rounds=math.ceil(2 * ll) + 4,
    )


def _laptop_cluster2(n: int) -> Cluster2Params:
    ln = log2n(n)
    ll = loglog(n)
    x = _LAPTOP_X_STAR
    big = max(8, round(0.75 * ln))
    return Cluster2Params(
        n=n,
        # seeds ~ x*n / (2*big): they grow to ~2*big before the global
        # clustered fraction reaches x* and growth self-limits.
        seed_prob=x / (2.0 * big),
        target_fraction=x,
        big_size=big,
        # Deactivate once measured growth dips below 2 - 1.5*x*: happens
        # when the clustered fraction passes ~x* (Lemma 10 with f = 1/x*).
        growth_stop_factor=2.0 - 1.5 * x,
        grow_rounds_cap=math.ceil(2 * ll) + 5,
        square_floor=big,
        square_target=math.sqrt(x * n / 8.0),
        # s -> s + x* s^2 / 2: each active cluster's s pushes hit ~x*s
        # clustered nodes, recruiting ~x*s/2 distinct inactive clusters of
        # size ~s each (the paper's s^2/log n with x* = Theta(1/log n)).
        square_step=lambda s: max(s + 1, s + math.ceil(x * s * s / 2.0)),
        merge_reps=4,
        bounded_push_growth_stop=1.1,
        bounded_push_rounds_cap=math.ceil(2 * ll) + 5,
        pull_rounds=math.ceil(2 * ll) + 4,
    )


def _laptop_cluster3(n: int, delta: int) -> Cluster3Params:
    ln = log2n(n)
    ll = loglog(n)
    c2 = 8.0  # C'': headroom so transient growth overshoot stays under Δ
    target = max(2, int(delta / c2))
    return Cluster3Params(
        n=n,
        delta=delta,
        target_size=target,
        # Stop squaring well below the target: one squaring iteration can
        # overshoot by the two-repetition recruit factor (~4x), and a
        # cluster that ever exceeds Δ needs >Δ fan-in just to resize.
        square_until=max(2.0, min(math.sqrt(delta * ln) / c2, target / 4.0)),
        merge_activate_coeff=10.0,
        bounded_push_growth_stop=1.1,
        bounded_push_rounds_cap=math.ceil(2 * ll) + 5,
        pull_rounds=math.ceil(2 * ll) + 4,
    )


def _laptop_push_pull(n: int, delta: int) -> PushPullParams:
    rounds = math.ceil(1.5 * log2n(n) / math.log2(max(delta, 2))) + 2
    return PushPullParams(n=n, delta=delta, main_iterations=rounds)


LAPTOP = Profile(
    name="laptop",
    cluster1=_laptop_cluster1,
    cluster2=_laptop_cluster2,
    cluster3=_laptop_cluster3,
    push_pull=_laptop_push_pull,
)


PROFILES = Catalogue("profile", {"paper": PAPER, "laptop": LAPTOP})

#: Look a profile up by name.
get_profile = PROFILES.lookup
