"""Recurrence classification of the half-line walk from two series.

For jump probabilities (p_n) the walk is

* transient          iff  sum_n prod_{k=1..n} (1-p_k)/p_k   converges,
* positive recurrent iff  sum_n p_0...p_{n-1} / ((1-p_1)...(1-p_n)) converges
  (that series is the total mass of the invariant measure), and
* null recurrent when both series diverge.

Every supported probability sequence is a finite prefix followed by a
repeating cycle.  The prefix changes only finitely many factors of either
series, so the per-cycle ratio decides both exactly (the birth-death chain
criterion of Karlin & McGregor, "Random walks", Illinois J. Math. 3, 1959),
and that rule alone gives the verdict.  A finite-horizon heuristic on the
first min(horizon, 200) terms of each series (running products over one
array of p) is reported as evidence and decides nothing.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .operators import PSeq, Constant, Periodic, _running_products
from .seqspace import Lattice

# the finite-horizon series rule of judge_series
_WINDOW = 20
_RATIO_MARGIN = 0.05
_TERM_FLOOR = 1e-14
_SUM_CAP = 1e6


class Classification(enum.Enum):
    POSITIVE_RECURRENT = "positive-recurrent"
    NULL_RECURRENT = "null-recurrent"
    TRANSIENT = "transient"


class Verdict(enum.Enum):
    """Answer to a yes/no question about the operator: eigenvalue membership,
    or a dynamical property of a scalar multiple."""

    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


class SeriesOutcome(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SeriesDecision:
    """A series verdict with its first 8 partial sums, their count and the last."""

    outcome: SeriesOutcome
    decided_at: int | None
    head: tuple[float, ...]
    terms: int
    final: float | None


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
    head: list[float] = []
    total = 0.0
    k = 0
    prev = None
    decided = None
    outcome = SeriesOutcome.UNDETERMINED
    for k, t in enumerate(itertools.islice(terms, horizon), start=1):
        total += t
        if not math.isfinite(total):
            total = math.inf
        if k <= 8:
            head.append(total)
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
    return SeriesDecision(outcome, decided, tuple(head), k, total if k else None)


def transience_series_terms(pseq: PSeq, n: int) -> list[float]:
    """The first n terms prod_{k=1..m} (1-p_k)/p_k, m = 1..n."""
    p = pseq.prob_array(np.arange(1, n + 1))
    return _running_products((1.0 - p) / p, 1)[1:].tolist()


def invariant_mass_series_terms(pseq: PSeq, n: int) -> list[float]:
    """The first n terms p_0...p_{m-1} / ((1-p_1)...(1-p_m)), m = 1..n: the
    masses the invariant measure puts at sites 1..n relative to site 0."""
    p = pseq.prob_array(np.arange(n + 1))
    return _running_products(p[:-1] / (1.0 - p[1:]), 1)[1:].tolist()


def _log_odds(p: float) -> float:
    """log((1-p)/p): the per-index log factor of the transience series."""
    return math.log1p(-p) - math.log(p)


def _stated(x: float):
    """The stated value of x, exactly: the shortest decimal that rounds to
    it, which is what ``pseq_text`` writes and a user types."""
    from fractions import Fraction  # on demand, off the CLI's import path

    return Fraction(repr(x))


def _chain_cycles(pseq: PSeq) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The cycle values the even and the odd kernel chain read per cycle:
    all of them when the cycle length is odd, one parity class when it is
    even (the even-coordinate chain reads odd indices and vice versa)."""
    cycle = pseq.cycle
    if len(cycle) % 2 == 1:
        return cycle, cycle
    # cycle[k] sits at the indices congruent to start + k
    return cycle[1 - pseq.start % 2 :: 2], cycle[pseq.start % 2 :: 2]


def _chain_factors(pseq: PSeq) -> tuple:
    """Per-cycle growth of the even and odd kernel-weight chains, exactly:
    the product of (1-p)/p over the stated values each chain reads.

    Every question decided at the threshold 1 reads these: the recurrence
    class, ker W in the space, and 0 as a dual eigenvalue.
    """
    return tuple(
        math.prod((1 - q) / q for q in map(_stated, values))
        for values in _chain_cycles(pseq)
    )


def kernel_decay_log_factors(pseq: PSeq) -> tuple[float, float]:
    """Per-cycle log growth of the even and odd kernel-weight chains.

    The weights w_n = |u_n| of the kernel vector (u_0 = 1, see
    :func:`walkdyn.inverse_kernel.kernel_vector`) satisfy
    w_{n+2}/w_n = (1-p_{n+1})/p_{n+1}.  Past the prefix a chain reads the
    cycle values of :func:`_chain_cycles` periodically, so the product of
    (1-p)/p over them telescopes the chain exactly.  These float logs size
    horizons and fill reports; the sign at the threshold is decided by
    :func:`_chain_factors`.
    """
    even, odd = (math.fsum(map(_log_odds, values)) for values in _chain_cycles(pseq))
    return even, odd


@dataclass(frozen=True)
class ClassVerdict:
    verdict: Classification
    method: str
    horizon: int
    transience_series: SeriesDecision
    invariant_mass_series: SeriesDecision
    detail: dict = field(default_factory=dict)


def classify(
    pseq: PSeq,
    horizon: int = 2000,
    lattice: Lattice = Lattice.HALF_LINE,
) -> ClassVerdict:
    """Classify the walk as transient, null recurrent or positive recurrent.

    Every supported form is decided exactly on the half-line from its
    cycle: the per-cycle product of (1-p)/p over the stated values
    (:func:`_chain_factors`) is 1 for a null recurrent walk and below 1 for
    a transient one.  On the line lattice only the constant case is
    supported (null recurrent at p = 1/2, transient otherwise).  That rule
    alone decides: :func:`judge_series` on the first min(horizon, 200) terms
    of both series is evidence.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if lattice is Lattice.LINE and not isinstance(pseq, Constant):
        raise ValueError("line-walk classification is implemented for constant p only")
    n = min(horizon, 200)
    s1 = judge_series(transience_series_terms(pseq, n), n)
    s2 = judge_series(invariant_mass_series_terms(pseq, n), n)
    cycle = pseq.cycle
    even, odd = _chain_factors(pseq)
    factor = even if len(cycle) % 2 else even * odd  # prod (1-p)/p over one cycle
    if lattice is Lattice.LINE:
        method, detail = "exact-line-constant", {"p": pseq.p}
    elif isinstance(pseq, Periodic):
        log_ratio = math.fsum(_log_odds(p) for p in cycle)
        method, detail = "exact-periodic", {"period": len(cycle), "period_log_ratio": log_ratio}
    elif pseq.prefix:
        method, detail = "exact-list", {"tail": cycle[0], "prefix_length": len(pseq.prefix)}
    else:
        method, detail = "exact-constant", {"p": cycle[0]}
    if factor == 1:
        verdict = Classification.NULL_RECURRENT
    elif factor < 1 or lattice is Lattice.LINE:
        verdict = Classification.TRANSIENT
    else:
        verdict = Classification.POSITIVE_RECURRENT
    return ClassVerdict(verdict, method, horizon, s1, s2, detail)

