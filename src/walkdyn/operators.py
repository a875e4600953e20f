"""Banded transition operators of nearest-neighbor random walks.

Two families are covered, each with constant or position-dependent jump
probabilities:

* the half-line walk: from state 0 the chain moves to 1 with probability
  p_0 and stays at 0 otherwise; from state i >= 1 it moves to i+1 with
  probability p_i and to i-1 otherwise;
* the line walk: from any state i the chain moves to i+1 with probability
  p_i and to i-1 otherwise (no holding anywhere).

The operator acts on sequences by rows, (A x)_i = sum_j A_{i,j} x_j, so a
finitely supported input stays finitely supported and the action is exact
up to floating-point rounding.  Powers are taken by repeated application;
nothing is ever truncated to a finite matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqspace import FinSeq, Lattice


def _check_prob(p: float) -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"jump probability must lie strictly between 0 and 1, got {p}")
    return p


class _PrefixCycle:
    """Shared description of the supported forms: a prefix, then a cycle.

    ``p_n = prefix[n - start]`` for ``0 <= n - start < len(prefix)`` and
    ``p_n = cycle[(n - start) % len(cycle)]`` at every other index.  Each
    form supplies ``prefix``, ``start`` and ``cycle``; the quantities that
    depend only on this description are written once here.  ``at`` stays
    on each form because it is the per-entry hot path.
    """

    prefix: tuple[float, ...] = ()
    start: int = 0
    cycle: tuple[float, ...]

    def prob_array(self, pos: np.ndarray) -> np.ndarray:
        cycle = self.cycle
        if len(cycle) == 1:
            out = np.full(pos.shape, cycle[0])
        else:
            out = np.asarray(cycle)[(pos - self.start) % len(cycle)]
        if self.prefix:
            idx = pos - self.start
            mask = (idx >= 0) & (idx < len(self.prefix))
            out[mask] = np.asarray(self.prefix)[idx[mask]]
        return out

    def probabilities(self) -> tuple[float, ...]:
        """Every distinct probability value the sequence can take."""
        return tuple(dict.fromkeys(self.prefix + self.cycle))

    def tail_probabilities(self) -> tuple[float, ...]:
        """Distinct values taken infinitely often (the eventual behavior)."""
        return tuple(dict.fromkeys(self.cycle))


@dataclass(frozen=True)
class Constant(_PrefixCycle):
    """Position-independent jump probability."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_prob(self.p))

    @property
    def cycle(self) -> tuple[float, ...]:
        return (self.p,)

    def at(self, n: int) -> float:
        return self.p


@dataclass(frozen=True)
class ListWithTail(_PrefixCycle):
    """Explicit window of probabilities, constant beyond it.

    ``values[k]`` applies at index ``start + k``; every index outside the
    window uses ``tail``.  ``start`` is only meaningful on the line; on the
    half-line it defaults to 0.
    """

    values: tuple[float, ...]
    tail: float
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_check_prob(v) for v in self.values))
        object.__setattr__(self, "tail", _check_prob(self.tail))
        object.__setattr__(self, "start", int(self.start))

    @property
    def prefix(self) -> tuple[float, ...]:
        return self.values

    @property
    def cycle(self) -> tuple[float, ...]:
        return (self.tail,)

    def at(self, n: int) -> float:
        k = n - self.start
        if 0 <= k < len(self.values):
            return self.values[k]
        return self.tail


@dataclass(frozen=True)
class Periodic(_PrefixCycle):
    """Probabilities repeating with period len(values): p_n = values[n mod L]."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(_check_prob(v) for v in self.values)
        if not vals:
            raise ValueError("periodic probability sequence needs at least one value")
        object.__setattr__(self, "values", vals)

    @property
    def cycle(self) -> tuple[float, ...]:
        return self.values

    def at(self, n: int) -> float:
        return self.values[n % len(self.values)]


PSeq = Constant | ListWithTail | Periodic


def parse_pseq(text: str) -> PSeq:
    """Parse the textual probability-sequence format.

    ``const:0.75``, ``list:0.5,0.6;tail=0.75`` (optionally ``;start=-2``
    for line operators), ``periodic:0.6,0.4``.
    """
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise ValueError(f"bad probability sequence {text!r}: missing ':'")
    head = head.strip().lower()
    parts = [s.strip() for s in rest.split(";") if s.strip()]
    if not parts:
        raise ValueError(f"bad probability sequence {text!r}: no values")
    try:
        values = tuple(float(s) for s in parts[0].split(","))
    except ValueError as exc:
        raise ValueError(f"bad probability sequence {text!r}") from exc
    opts = {}
    for extra in parts[1:]:
        key, eq, val = extra.partition("=")
        if not eq:
            raise ValueError(f"bad option {extra!r} in {text!r}")
        opts[key.strip().lower()] = val.strip()
    if head == "const":
        if len(values) != 1 or opts:
            raise ValueError(f"const takes exactly one value, got {text!r}")
        return Constant(values[0])
    if head == "list":
        if "tail" not in opts:
            raise ValueError(f"list form needs ';tail=...' in {text!r}")
        tail = float(opts.pop("tail"))
        start = int(opts.pop("start", "0"))
        if opts:
            raise ValueError(f"unknown options {sorted(opts)} in {text!r}")
        return ListWithTail(values, tail, start)
    if head == "periodic":
        if opts:
            raise ValueError(f"unknown options {sorted(opts)} in {text!r}")
        return Periodic(values)
    raise ValueError(f"unknown probability sequence form {head!r}")


def pseq_text(pseq: PSeq) -> str:
    """Inverse of :func:`parse_pseq` (round-trips through the text form)."""
    if isinstance(pseq, Constant):
        return f"const:{pseq.p!r}"
    if isinstance(pseq, ListWithTail):
        vals = ",".join(repr(v) for v in pseq.values)
        s = f"list:{vals};tail={pseq.tail!r}"
        if pseq.start:
            s += f";start={pseq.start}"
        return s
    if isinstance(pseq, Periodic):
        return "periodic:" + ",".join(repr(v) for v in pseq.values)
    raise TypeError(f"not a probability sequence: {pseq!r}")


@dataclass(frozen=True)
class BandedOp:
    """Row-stochastic tridiagonal-band operator of a nearest-neighbor walk."""

    lattice: Lattice
    pseq: PSeq

    def describe(self) -> str:
        shape = "half-line" if self.lattice is Lattice.HALF_LINE else "line"
        if isinstance(self.pseq, Constant):
            return f"{shape} walk, constant p={self.pseq.p}"
        return f"{shape} walk, inhomogeneous ({pseq_text(self.pseq)})"

    def _check_index(self, i: int) -> None:
        if self.lattice is Lattice.HALF_LINE and i < 0:
            raise ValueError("half-line indices are nonnegative")

    def entry(self, i: int, j: int) -> float:
        """Matrix entry A_{i,j}."""
        self._check_index(i)
        self._check_index(j)
        p = self.pseq.at(i)
        if self.lattice is Lattice.HALF_LINE and i == 0:
            if j == 0:
                return 1.0 - p
            if j == 1:
                return p
            return 0.0
        if j == i - 1:
            return 1.0 - p
        if j == i + 1:
            return p
        return 0.0

    def apply(self, x: FinSeq) -> FinSeq:
        """Row action (A x)_i = (1-p_i) x_{i-1} + p_i x_{i+1}, with the
        half-line boundary row (A x)_0 = (1-p_0) x_0 + p_0 x_1."""
        if x.lattice is not self.lattice:
            raise ValueError("sequence lattice does not match the operator")
        sup = x.trim().support()
        if sup is None:
            return FinSeq.zero(self.lattice)
        lo, hi = sup
        out_lo = lo - 1
        if self.lattice is Lattice.HALF_LINE:
            out_lo = max(out_lo, 0)
        vals = []
        for i in range(out_lo, hi + 2):
            p = self.pseq.at(i)
            if self.lattice is Lattice.HALF_LINE and i == 0:
                vals.append((1.0 - p) * x.at(0) + p * x.at(1))
            else:
                vals.append((1.0 - p) * x.at(i - 1) + p * x.at(i + 1))
        return FinSeq(self.lattice, out_lo, tuple(vals))

    def apply_transpose(self, y: FinSeq) -> FinSeq:
        """Column action (A' y)_j = sum_i A_{i,j} y_i.

        This is the action of the operator on row functionals; a left zero
        eigenvector u (u A = 0) satisfies apply_transpose(u) = 0.
        """
        if y.lattice is not self.lattice:
            raise ValueError("sequence lattice does not match the operator")
        sup = y.trim().support()
        if sup is None:
            return FinSeq.zero(self.lattice)
        lo, hi = sup
        out_lo = lo - 1
        if self.lattice is Lattice.HALF_LINE:
            out_lo = max(out_lo, 0)
        vals = []
        half = self.lattice is Lattice.HALF_LINE
        for j in range(out_lo, hi + 2):
            acc = 0.0 + 0.0j
            if not half or j >= 1:
                acc += self.pseq.at(j - 1) * y.at(j - 1)
            if half and j == 0:
                acc += (1.0 - self.pseq.at(0)) * y.at(0)
            acc += (1.0 - self.pseq.at(j + 1)) * y.at(j + 1)
            vals.append(acc)
        return FinSeq(self.lattice, out_lo, tuple(vals))

    def power_apply(self, n: int, x: FinSeq) -> FinSeq:
        """A^n x by n successive banded applications."""
        if n < 0:
            raise ValueError("power must be nonnegative")
        cur = x
        for _ in range(n):
            cur = self.apply(cur)
        return cur

    def power_entry(self, n: int, i: int, j: int) -> float:
        """(A^n)_{i,j}, computed as coordinate i of the column A^n e_j.

        The column is built by n forward applications of the operator to
        the coordinate vector e_j.
        """
        self._check_index(i)
        self._check_index(j)
        col = self.power_apply(n, FinSeq.unit(j, self.lattice))
        return col.at(i).real

    def power_row(self, n: int, i: int) -> FinSeq:
        """Row i of A^n, built by n applications of the transpose action."""
        self._check_index(i)
        cur = FinSeq.unit(i, self.lattice)
        for _ in range(n):
            cur = self.apply_transpose(cur)
        return cur


def make_walk(lattice: Lattice, pseq: PSeq) -> BandedOp:
    """Build the walk operator for the given lattice and jump probabilities."""
    if not isinstance(pseq, (Constant, ListWithTail, Periodic)):
        raise TypeError(f"not a probability sequence: {pseq!r}")
    if not isinstance(lattice, Lattice):
        raise TypeError(f"not a lattice: {lattice!r}")
    return BandedOp(lattice, pseq)
