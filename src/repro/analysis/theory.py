"""Predicted growth shapes and least-squares shape classification.

The paper's claims are about *asymptotic shape*: Cluster1/2 rounds grow as
``log log n``, Avin-Elsässer as ``sqrt(log n)``, plain gossip as
``log n``, Cluster2 messages stay ``O(1)``.  At laptop scale absolute
constants dominate, so the reproduction's E1/E2 assertions are about which
one-parameter family ``y = a * f(log2 n) + b`` fits a measured curve best.

All families are parametrised by ``L = log2 n`` so their curvatures differ
meaningfully over the measured range (``L`` in ~[7, 18]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.catalogue import Catalogue

GROWTH_FAMILIES = Catalogue("family", {
    "const": lambda L: 1.0,
    "loglog": lambda L: math.log2(max(L, 2.0)),
    "sqrtlog": lambda L: math.sqrt(max(L, 1.0)),
    "log": lambda L: L,
})


@dataclass(frozen=True)
class FitResult:
    """A least-squares fit of ``y ~ a * f(log2 n) + b``."""

    family: str
    a: float
    b: float
    rss: float
    r2: float

    def predict(self, n: int) -> float:
        f = GROWTH_FAMILIES[self.family]
        return self.a * f(math.log2(max(n, 2))) + self.b


def fit_growth(ns: Sequence[int], ys: Sequence[float], family: str) -> FitResult:
    """Least-squares fit of one growth family (closed form, 2 params)."""
    f = GROWTH_FAMILIES.lookup(family)
    if len(ns) != len(ys) or len(ns) < 2:
        raise ValueError("need >= 2 aligned (n, y) points")
    xs = [f(math.log2(max(int(n), 2))) for n in ns]
    ys = [float(y) for y in ys]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0:
        a = 0.0  # constant family (or degenerate x): intercept-only fit
    else:
        a = sxy / sxx
    b = my - a * mx
    residuals = [y - (a * x + b) for x, y in zip(xs, ys)]
    rss = sum(r * r for r in residuals)
    tss = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 - rss / tss if tss > 0 else (1.0 if rss == 0 else 0.0)
    return FitResult(family=family, a=a, b=b, rss=rss, r2=r2)


def best_growth_class(
    ns: Sequence[int],
    ys: Sequence[float],
    families: Sequence[str] = ("const", "loglog", "sqrtlog", "log"),
) -> FitResult:
    """The family with the smallest residual sum of squares.

    Ties (e.g. a perfectly flat curve fits every family with a ~ 0) break
    towards the *slowest-growing* family, which is the conservative choice
    for the paper's claims: calling a flat curve "log" would be the error
    that matters.
    """
    order = {name: i for i, name in enumerate(("const", "loglog", "sqrtlog", "log"))}
    fits = [fit_growth(ns, ys, fam) for fam in families]
    fits.sort(key=lambda fr: (round(fr.rss, 12), order.get(fr.family, 99)))
    return fits[0]


def grows_slower_than(
    ns: Sequence[int], ys: Sequence[float], family: str, factor: float = 0.75
) -> bool:
    """Does the curve grow distinctly slower than ``family``?

    Sub-``family`` growth means the curve is concave when re-plotted
    against ``f(log2 n)``: its marginal slope *shrinks* along the range.
    We least-squares fit the slope (in ``f(log2 n)`` units) over the first
    and second halves of the points and require the late slope to be at
    most ``factor`` times the early slope (within a small noise epsilon).
    A ``family`` curve itself has equal slopes and fails; ``loglog`` data
    against ``family="log"`` roughly halves its slope over a
    ``2^8..2^18`` range and passes.
    """
    f = GROWTH_FAMILIES.lookup(family)
    if len(ns) < 4:
        raise ValueError("need >= 4 points to compare early/late slopes")
    pts = sorted((f(math.log2(max(int(n), 2))), float(y)) for n, y in zip(ns, ys))
    ys_only = [y for _, y in pts]
    level = sum(abs(y) for y in ys_only) / len(ys_only)
    if max(ys_only) - min(ys_only) <= 0.1 * level:
        return True  # essentially flat: slower than any growing family
    half = len(pts) // 2
    early = _slope(pts[: half + 1])
    late = _slope(pts[half:])
    eps = 0.05 * max(abs(early), abs(late))
    return late <= factor * early + eps


def _slope(pts: "list[tuple[float, float]]") -> float:
    """Least-squares slope of (x, y) points."""
    k = len(pts)
    mx = sum(x for x, _ in pts) / k
    my = sum(y for _, y in pts) / k
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# ----------------------------------------------------------------------
# Closed-form predictions quoted from the paper (used in reports)
# ----------------------------------------------------------------------


def predicted_rounds(algorithm: str, n: int) -> float:
    """The paper's leading-order round count (no constants)."""
    L = math.log2(max(n, 2))
    table = {
        "push": L,
        "pull": L,
        "push-pull": L,
        "median-counter": L,
        "avin-elsasser": math.sqrt(L),
        "cluster1": math.log2(max(L, 2)),
        "cluster2": math.log2(max(L, 2)),
    }
    try:
        return table[algorithm]
    except KeyError:
        raise ValueError(f"no prediction for algorithm {algorithm!r}") from None


def predicted_messages_per_node(algorithm: str, n: int) -> float:
    """The paper's leading-order message complexity per node."""
    L = math.log2(max(n, 2))
    table = {
        "push": L,
        "pull": 1.0,
        "push-pull": L,
        "median-counter": math.log2(max(L, 2)),
        "avin-elsasser": math.sqrt(L),
        "cluster1": math.log2(max(L, 2)),
        "cluster2": 1.0,
    }
    try:
        return table[algorithm]
    except KeyError:
        raise ValueError(f"no prediction for algorithm {algorithm!r}") from None


def delta_tradeoff_rounds(n: int, delta: int) -> float:
    """Lemma 16/17: broadcast over a Δ-clustering needs ``log n / log Δ``
    rounds (leading order)."""
    return math.log2(max(n, 2)) / math.log2(max(delta, 2))
