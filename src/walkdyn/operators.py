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
up to floating-point rounding.  The row action gathers and the column
action scatters along one band description; powers run in one buffered
forward loop (``BandedOp._orbit``) with the bits of repeated application,
and nothing is ever truncated to a finite matrix.  The loop runs on
float64 for a real start under A or lam A with lam > 0, bit for bit; for a
real lam < 0 only moduli are kept (callers run it on |lam|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqspace import FinSeq, Lattice, _cmul


def _check_prob(p: float) -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"jump probability must lie strictly between 0 and 1, got {p}")
    return p


class _PrefixCycle:
    """Shared description of the supported forms: a prefix, then a cycle.

    ``p_n = prefix[n - start]`` for ``0 <= n - start < len(prefix)`` and
    ``p_n = cycle[(n - start) % len(cycle)]`` at every other index.  Each
    form sets ``prefix``, ``start`` and ``cycle`` as plain attributes; the
    quantities that depend only on this description are written once here.
    """

    prefix: tuple[float, ...] = ()
    start: int = 0
    cycle: tuple[float, ...]

    def at(self, n: int) -> float:
        k = n - self.start
        if 0 <= k < len(self.prefix):
            return self.prefix[k]
        return self.cycle[k % len(self.cycle)]

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


@dataclass(frozen=True)
class Constant(_PrefixCycle):
    """Position-independent jump probability."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_prob(self.p))
        object.__setattr__(self, "cycle", (self.p,))


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
        object.__setattr__(self, "prefix", self.values)
        object.__setattr__(self, "cycle", (self.tail,))


@dataclass(frozen=True)
class Periodic(_PrefixCycle):
    """Probabilities repeating with period len(values): p_n = values[n mod L]."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(_check_prob(v) for v in self.values)
        if not vals:
            raise ValueError("periodic probability sequence needs at least one value")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "cycle", vals)


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

    def _band(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The band at the given rows: row i moves to i+1 with probability
        up = p_i, else (down) to i-1, or stays at 0 on the half-line."""
        up = self.pseq.prob_array(rows)
        return up, 1.0 - up

    def apply(self, x: FinSeq) -> FinSeq:
        """Row action (A x)_i = (1-p_i) x_{i-1} + p_i x_{i+1}, with the
        half-line boundary row (A x)_0 = (1-p_0) x_0 + p_0 x_1."""
        if x.lattice is not self.lattice:
            raise ValueError("sequence lattice does not match the operator")
        sup = x.support()
        if sup is None:
            return FinSeq.zero(self.lattice)
        lo, hi = sup
        half = self.lattice is Lattice.HALF_LINE
        out_lo = max(lo - 1, 0) if half else lo - 1
        # x on indices out_lo-1 .. hi+2; rows out_lo .. hi+1 gather from it
        xs = np.zeros(hi - out_lo + 4, np.complex128)
        xs[lo - out_lo + 1 : hi - out_lo + 2] = x.window(lo, hi + 1)
        if half and out_lo == 0:
            xs[0] = xs[1]  # row 0 holds: its down move reads x_0
        up, down = self._band(np.arange(out_lo, hi + 2))
        return FinSeq(self.lattice, out_lo, _cmul(down, xs[:-2]) + _cmul(up, xs[2:]))

    def apply_transpose(self, y: FinSeq) -> FinSeq:
        """Column action (A' y)_j = sum_i A_{i,j} y_i.

        This is the action of the operator on row functionals; a left zero
        eigenvector u (u A = 0) satisfies apply_transpose(u) = 0.  Each
        column sums its two contributions onto zero, so zeros come out +0.
        """
        if y.lattice is not self.lattice:
            raise ValueError("sequence lattice does not match the operator")
        sup = y.support()
        if sup is None:
            return FinSeq.zero(self.lattice)
        lo, hi = sup
        ys = y.window(lo, hi + 1)
        up, down = self._band(np.arange(lo, hi + 1))
        out = np.zeros(hi - lo + 3, np.complex128)  # columns lo-1 .. hi+1
        out[2:] += _cmul(up, ys)
        moved = _cmul(down, ys)
        out[:-2] += moved
        if lo == 0 and self.lattice is Lattice.HALF_LINE:
            out[1] += moved[0]  # row 0 holds at column 0
            return FinSeq(self.lattice, 0, out[1:])
        return FinSeq(self.lattice, lo - 1, out)

    def _orbit(self, x: FinSeq, n: int, lam: complex | None = None):
        """Yield (lo, values) for x, Tx, ..., T^n x, T = A or lam * A (lam
        complex): views, overwritten by the next step, of the windows that
        ``apply`` then ``lam *`` store, with their bits.  The band is read
        once; two buffers alternate, +0 off the support as ``apply`` pads it:
        float64 if x is finite with a +0 imaginary part (``apply`` keeps it
        +0) and lam is None or finite, positive with a +0 imaginary part
        (``_cmul(lam, y)`` is then the float product, zeros included, until
        a product overflows: from there the loop runs on complex128), else
        complex128 with ``_cmul``, whose zero terms tie signs."""
        if x.lattice is not self.lattice:
            raise ValueError("sequence lattice does not match the operator")
        yield x.offset, x.values
        half = self.lattice is Lattice.HALF_LINE
        lo, hi = x.support() or (0, -1)
        win = x.window(lo, hi + 1)
        flat = lam is None or 0 < lam.real < np.inf and not np.signbit(lam.imag) and not lam.imag
        flat = flat and not win.imag.any() and not np.signbit(win.imag).any()
        flat = flat and np.isfinite(win.real).all()
        base = -1 if half else lo - n - 1  # buffer position 0 holds this index
        up, down = self._band(np.arange(base, hi + n + 2))
        cur, nxt = np.zeros((2, len(up)), np.float64 if flat else np.complex128)
        s, e = lo - base, hi - base  # support positions
        cur[s : e + 1] = win.real if flat else win
        a, b = s, e + 1  # the last yielded window
        g0, g1 = s, e + 1  # positions reached so far
        for k in range(n):
            if s > e:  # A^k x = 0, so apply returns the empty sequence from here on
                yield from [(0, cur[:0])] * (n - k)
                return
            cur[a:s] = cur[e + 1 : b] = 0.0  # trimmed zeros are read as +0
            g0, g1 = (max(g0 - 1, 1) if half else g0 - 1), g1 + 1
            a, b = (max(s - 1, 1) if half else s - 1), e + 2  # apply's window
            if half:
                cur[0] = cur[1]  # row 0 holds: its down move reads x_0
            d, u = down[g0:g1], up[g0:g1]
            left, right = cur[g0 - 1 : g1 - 1], cur[g0 + 1 : g1 + 1]
            if flat:
                out = np.multiply(d, left, out=nxt[g0:g1])
                out += u * right
            else:
                nxt[g0:g1] = _cmul(d, left) + _cmul(u, right)
            if lam is not None and flat:
                nxt[a:b] *= lam.real
                if not np.isfinite(nxt[a:b]).all():  # 0 * inf is nan in the next _cmul
                    flat, cur, nxt = False, cur.astype(np.complex128), nxt.astype(np.complex128)
            elif lam is not None:
                nxt[a:b] = _cmul(lam, nxt[a:b])
            s, e = a, b - 1
            while s <= e and not nxt[s]:
                s += 1
            while e >= s and not nxt[e]:
                e -= 1
            yield a + base, nxt[a:b]
            cur, nxt = nxt, cur

    def power_apply(self, n: int, x: FinSeq) -> FinSeq:
        """A^n x, bit for bit n applications, in one buffered loop."""
        if n < 0:
            raise ValueError("power must be nonnegative")
        for lo, values in self._orbit(x, n):
            pass  # each step overwrites the last; only A^n x is kept
        return FinSeq(x.lattice, lo, values)

    def power_entry(self, n: int, i: int, j: int) -> float:
        """(A^n)_{i,j}: coordinate i of the column ``power_apply(n, e_j)``."""
        self._check_index(i)
        self._check_index(j)
        return self.power_apply(n, FinSeq.unit(j, self.lattice)).at(i).real

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
