"""Recurrence classification of the half-line walk from two series.

For jump probabilities (p_n) the walk is

* transient          iff  sum_n prod_{k=1..n} (1-p_k)/p_k   converges,
* positive recurrent iff  sum_n p_0...p_{n-1} / ((1-p_1)...(1-p_n)) converges
  (that series is the total mass of the invariant measure), and
* null recurrent when both series diverge.

Every supported probability sequence is a finite prefix followed by a
repeating cycle.  The prefix changes only finitely many factors of either
series, so the per-cycle ratio decides both exactly (the birth-death chain
criterion of Karlin & McGregor, "Random walks", Illinois J. Math. 3, 1959).
A finite-horizon heuristic that inspects term ratios and partial sums is
kept as a labelled audit route; it may honestly return Undetermined.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .operators import PSeq, Constant, Periodic
from .seqspace import Lattice

_OVERFLOW_CAP = 1e300

# the finite-horizon series rule of judge_series
_WINDOW = 20
_RATIO_MARGIN = 0.05
_TERM_FLOOR = 1e-14
_SUM_CAP = 1e6


class Classification(enum.Enum):
    POSITIVE_RECURRENT = "positive-recurrent"
    NULL_RECURRENT = "null-recurrent"
    TRANSIENT = "transient"
    UNDETERMINED = "undetermined"


class SeriesOutcome(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SeriesDecision:
    outcome: SeriesOutcome
    decided_at: int | None
    partial_sums: tuple[float, ...]


def judge_series(terms: Iterable[float], horizon: int) -> SeriesDecision:
    """Finite-horizon decision on the first ``horizon`` terms of a series.

    A positive-term series is declared convergent at the first index where
    the trailing 20 term ratios all sit at or below 1 - 0.05, or a term
    drops below 1e-14.  It is declared divergent at the first index where
    the partial sum exceeds 1e6 or the trailing 20 ratios all sit at or
    above 1 + 0.05.  The first decision sticks, which makes verdicts
    stable under extending the horizon.  Anything else is Undetermined;
    this is a heuristic, not a proof.
    """
    ratios: deque[float] = deque(maxlen=_WINDOW)
    sums: list[float] = []
    total = 0.0
    prev = None
    decided = None
    outcome = SeriesOutcome.UNDETERMINED
    for k, t in enumerate(terms, start=1):
        if k > horizon:
            break
        total += t
        if not math.isfinite(total):
            total = math.inf
        sums.append(total)
        if prev is not None and prev > 0 and math.isfinite(t):
            ratios.append(t / prev)
        prev = t
        if decided is None:
            full = len(ratios) == _WINDOW
            if t < _TERM_FLOOR or (
                full and all(r <= 1.0 - _RATIO_MARGIN for r in ratios)
            ):
                outcome, decided = SeriesOutcome.CONVERGES, k
            elif total > _SUM_CAP or (
                full and all(r >= 1.0 + _RATIO_MARGIN for r in ratios)
            ):
                outcome, decided = SeriesOutcome.DIVERGES, k
    return SeriesDecision(outcome, decided, tuple(sums))


def transience_series_terms(pseq: PSeq) -> Iterator[float]:
    """Terms prod_{k=1..n} (1-p_k)/p_k for n = 1, 2, ..."""
    t = 1.0
    n = 1
    while True:
        p = pseq.at(n)
        t *= (1.0 - p) / p
        yield t
        n += 1


def invariant_mass_series_terms(pseq: PSeq) -> Iterator[float]:
    """Terms p_0...p_{n-1} / ((1-p_1)...(1-p_n)) for n = 1, 2, ...

    Term n is the mass the invariant measure puts at site n relative to
    site 0.
    """
    t = 1.0
    n = 1
    while True:
        t *= pseq.at(n - 1) / (1.0 - pseq.at(n))
        yield t
        n += 1


def _partial(terms: Iterator[float], n: int) -> float:
    if n < 1:
        raise ValueError("need at least one term")
    total = 0.0
    for k, t in enumerate(terms, start=1):
        if k > n:
            break
        total += t
        if total > _OVERFLOW_CAP or not math.isfinite(total):
            return math.inf
    return total


def transience_series_partial(pseq: PSeq, n: int) -> float:
    """Partial sum of the transience series; +inf marker past 1e300."""
    return _partial(transience_series_terms(pseq), n)


def invariant_mass_series_partial(pseq: PSeq, n: int) -> float:
    """Partial sum of the invariant-mass series; +inf marker past 1e300."""
    return _partial(invariant_mass_series_terms(pseq), n)


def kernel_weights(pseq: PSeq, n_max: int) -> list[float]:
    """Weights w_0..w_{n_max}, the moduli of the zero-eigenvector's coordinates:
    w_0 = 1, and w_n is the product of (1-p_j)/p_j over the j < n of the
    other parity; their decay puts the eigenvector in c0 or l^q."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = [1.0]
    if n_max >= 1:
        out.append((1.0 - pseq.at(0)) / pseq.at(0))
    for n in range(2, n_max + 1):
        p = pseq.at(n - 1)
        out.append(out[n - 2] * (1.0 - p) / p)
    return out


def _log_odds(p: float) -> float:
    """log((1-p)/p): the per-index log factor of the transience series."""
    return math.log1p(-p) - math.log(p)


def kernel_decay_log_factors(pseq: PSeq) -> tuple[float, float]:
    """Per-cycle log growth of the even and odd kernel-weight chains.

    Weights satisfy w_{n+2}/w_n = (1-p_{n+1})/p_{n+1}.  Past the prefix a
    chain reads the cycle values periodically: all of them when the cycle
    length is odd, one parity class when it is even (the even-coordinate
    chain reads odd indices and vice versa).  The product of (1-p)/p over
    the values one chain cycle reads telescopes the chain exactly, so the
    sign of its log decides decay.  Negative means the chain decays
    geometrically per cycle; zero means it stays bounded away from zero.
    """
    cycle = pseq.cycle
    if len(cycle) % 2 == 1:
        v = math.fsum(_log_odds(p) for p in cycle)
        return v, v
    # cycle[k] sits at the indices congruent to start + k
    even = math.fsum(_log_odds(p) for k, p in enumerate(cycle) if (pseq.start + k) % 2)
    odd = math.fsum(_log_odds(p) for k, p in enumerate(cycle) if not (pseq.start + k) % 2)
    return even, odd


@dataclass(frozen=True)
class ClassVerdict:
    verdict: Classification
    method: str
    horizon: int
    transience_series: SeriesDecision
    invariant_mass_series: SeriesDecision
    detail: dict = field(default_factory=dict)


def _evidence(pseq: PSeq, n: int) -> tuple[SeriesDecision, SeriesDecision]:
    s1 = judge_series(transience_series_terms(pseq), n)
    s2 = judge_series(invariant_mass_series_terms(pseq), n)
    return s1, s2


def classify(
    pseq: PSeq,
    horizon: int = 2000,
    lattice: Lattice = Lattice.HALF_LINE,
    method: str = "auto",
) -> ClassVerdict:
    """Classify the walk as transient, null recurrent or positive recurrent.

    Every supported form is decided exactly on the half-line from its
    cycle: constant p, and the constant tail of a list, compare that value
    with 1/2; a periodic sequence uses the sign of the per-cycle log ratio
    sum log((1-p)/p), read as zero within 1e-12 per value.  On the
    line lattice only the constant case is supported (null recurrent at
    p = 1/2, transient otherwise).  ``method="series"`` skips the exact
    route and runs :func:`judge_series` on both series regardless,
    which is how the exact route is audited.
    """
    if method not in ("auto", "series"):
        raise ValueError("method must be 'auto' or 'series'")
    if method == "series":
        if lattice is Lattice.LINE:
            raise ValueError("the series route classifies the half-line walk only")
        return _series_classify(pseq, horizon)
    if lattice is Lattice.LINE and not isinstance(pseq, Constant):
        raise ValueError("line-walk classification is implemented for constant p only")
    s1, s2 = _evidence(pseq, min(horizon, 200))
    if lattice is Lattice.LINE:
        verdict = (
            Classification.NULL_RECURRENT
            if pseq.p == 0.5
            else Classification.TRANSIENT
        )
        return ClassVerdict(verdict, "exact-line-constant", horizon, s1, s2, {"p": pseq.p})

    cycle = pseq.cycle
    if isinstance(pseq, Periodic):
        # Over one full cycle the transience-series terms pick up the fixed
        # factor prod (1-p)/p, so the sign of its log decides both series.
        log_ratio = math.fsum(_log_odds(p) for p in cycle)
        null, transient = abs(log_ratio) <= 1e-12 * len(cycle), log_ratio < 0
        method, detail = "exact-periodic", {"period": len(cycle), "period_log_ratio": log_ratio}
    else:
        # constant p, or a list whose tail is constant: compare it with 1/2
        p = cycle[0]
        null, transient = p == 0.5, p > 0.5
        if pseq.prefix:
            method, detail = "exact-list", {"tail": p, "prefix_length": len(pseq.prefix)}
        else:
            method, detail = "exact-constant", {"p": p}
    if null:
        verdict = Classification.NULL_RECURRENT
    elif transient:
        verdict = Classification.TRANSIENT
    else:
        verdict = Classification.POSITIVE_RECURRENT
    return ClassVerdict(verdict, method, horizon, s1, s2, detail)


def _series_classify(pseq: PSeq, horizon: int) -> ClassVerdict:
    s1, s2 = _evidence(pseq, horizon)
    if s1.outcome is SeriesOutcome.CONVERGES:
        # summable escape chances decide transience on their own
        verdict = Classification.TRANSIENT
    elif (
        s1.outcome is SeriesOutcome.DIVERGES
        and s2.outcome is SeriesOutcome.CONVERGES
    ):
        # recurrence plus a finite invariant measure
        verdict = Classification.POSITIVE_RECURRENT
    elif (
        s1.outcome is SeriesOutcome.DIVERGES
        and s2.outcome is SeriesOutcome.DIVERGES
    ):
        verdict = Classification.NULL_RECURRENT
    else:
        verdict = Classification.UNDETERMINED
    return ClassVerdict(verdict, "series-policy", horizon, s1, s2)
