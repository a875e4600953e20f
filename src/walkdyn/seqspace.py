"""Finitely supported sequences and the classical sequence-space norms.

Everything in this package acts on finitely supported complex sequences
indexed either by the nonnegative integers (half-line) or by all integers
(line).  ``FinSeq`` is the one value type, an offset plus a read-only
complex128 array; it is immutable and all arithmetic returns new
instances.  Array arithmetic rounds as Python's ``complex`` does: products
are written out on the real and imaginary parts and moduli use ``hypot``,
since numpy's complex multiply, division and ``abs`` can differ in the
last bit.  Norms cover c0, c, l^q (q >= 1) and l^infinity; the sup norm
is shared by c0, c and l^infinity because a finitely supported
representative realizes it the same way in each; norms are written once,
on the rows of a block of moduli (``_row_norms``), for ``FinSeq`` and the
orbit loops alike.  A row's sum is ``math.fsum``'s, bit for bit, by
error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
2008): terms cut at multiples of an ulp sum exactly in any order, twice,
and a bound on the rest decides the rounding; fsum rounds correctly, so
that is its result.  Rows of sup at most 2^-900 or at least 2^1000/n, with
inf or nan, or undecided (about n^3 2^-54 of them) take fsum in stored
order, which near the float max decides whether it raises; a sum past the
float range is inf, in l^1 as in l^q.  Powers of moduli
(the l^q ``r**q``, the projective probe's ``|v|**2``) come from
``np.float_power``: libm ``pow`` per entry, the bits of Python's ``**``,
where ``np.square`` and ``np.power`` take SIMD paths (at q = 2 each
differs from ``r**2`` on 736 of 900,000 uniform doubles in [0, 1), with
glibc 2.36 and numpy 2.4).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class Lattice(enum.Enum):
    """Index set of a sequence: the nonnegative integers or all integers."""

    HALF_LINE = "half-line"
    LINE = "line"


def _cmul(a, z: np.ndarray) -> np.ndarray:
    """Entrywise a * z for a complex scalar or real array a, rounded as
    Python's complex product (a real a enters as a + 0j)."""
    ar, ai = (a.real, a.imag) if np.iscomplexobj(a) else (a, 0.0)
    out = np.empty(np.broadcast(ar, z).shape, np.complex128)
    out.real = ar * z.real - ai * z.imag
    out.imag = ar * z.imag + ai * z.real
    return out


def _float_plane(values: np.ndarray) -> bool:
    """Whether complex values run on their real parts alone, the float
    plane of both orbit loops: every entry finite, every imaginary part +0."""
    imag = values.imag
    return bool(np.isfinite(values).all()) and not (imag.any() or np.signbit(imag).any())


def _abs(values: np.ndarray) -> np.ndarray:
    if values.dtype == np.float64:
        return np.abs(values)  # hypot(x, 0) = |x|, bit for bit
    return np.hypot(values.real, values.imag)


@dataclass(frozen=True, eq=False)
class FinSeq:
    """Finitely supported complex sequence.

    Entries outside ``[offset, offset + len(values))`` are implicitly zero.
    ``values`` is a read-only complex128 array, whatever the input type.
    Stored zeros at either end are permitted; :meth:`trim` removes them and
    produces the canonical form.  Equality and hashing go through the
    canonical form, so two representations of the same sequence compare
    equal.
    """

    lattice: Lattice
    offset: int
    values: np.ndarray

    def __post_init__(self):
        vals = self.values
        vals = np.array(vals if isinstance(vals, np.ndarray) else [*vals], np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "offset", int(self.offset) if len(vals) else 0)
        if self.lattice is Lattice.HALF_LINE and self.offset < 0:
            raise ValueError("half-line sequences start at a nonnegative index")

    @classmethod
    def zero(cls, lattice: Lattice = Lattice.HALF_LINE) -> "FinSeq":
        return cls(lattice, 0, ())

    @classmethod
    def unit(cls, index: int, lattice: Lattice = Lattice.HALF_LINE) -> "FinSeq":
        """Coordinate vector e_index."""
        return cls(lattice, index, (1.0 + 0.0j,))

    @classmethod
    def from_values(
        cls,
        values,
        offset: int = 0,
        lattice: Lattice = Lattice.HALF_LINE,
    ) -> "FinSeq":
        return cls(lattice, offset, values)

    def at(self, i: int) -> complex:
        """Entry at index i, implicitly zero outside the stored window."""
        k = i - self.offset
        if 0 <= k < len(self.values):
            return complex(self.values[k])
        return 0.0 + 0.0j

    @property
    def is_zero(self) -> bool:
        return not self.values.any()

    def support(self) -> tuple[int, int] | None:
        """Smallest and largest index holding a nonzero entry, or None."""
        nz = np.flatnonzero(self.values)
        if not len(nz):
            return None
        return self.offset + int(nz[0]), self.offset + int(nz[-1])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Stored entries at indices lo..hi-1 (a view); lo and hi must lie
        within the stored window."""
        return self.values[lo - self.offset : hi - self.offset]

    def trim(self) -> "FinSeq":
        """Canonical form: exact stored zeros stripped from both ends."""
        sup = self.support()
        if sup is None:
            return FinSeq(self.lattice, 0, ())
        lo, hi = sup
        if lo == self.offset and hi - lo + 1 == len(self.values):
            return self
        return FinSeq(self.lattice, lo, self.window(lo, hi + 1))

    def items(self) -> Iterator[tuple[int, complex]]:
        return zip(range(self.offset, self.offset + len(self.values)), self.values.tolist())

    def sup_abs(self) -> float:
        return float(_abs(self.values).max(initial=0.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinSeq):
            return NotImplemented
        a = self.trim()
        b = other.trim()
        same_place = a.lattice is b.lattice and a.offset == b.offset
        return same_place and np.array_equal(a.values, b.values)

    def __hash__(self) -> int:
        t = self.trim()
        return hash((t.lattice, t.offset, tuple(t.values.tolist())))

    def _merge(self, other: "FinSeq", sign: int) -> "FinSeq":
        if self.lattice is not other.lattice:
            raise ValueError("cannot combine sequences over different lattices")
        if not len(other.values):
            return self
        if not len(self.values):
            return other if sign > 0 else -other
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.values), other.offset + len(other.values))
        vals = np.zeros(hi - lo, np.complex128)  # so an exact zero sums to +0
        vals[self.offset - lo : self.offset - lo + len(self.values)] += self.values
        b = other.offset - lo
        vals[b : b + len(other.values)] += other.values if sign > 0 else -other.values
        return FinSeq(self.lattice, lo, vals)

    def __add__(self, other: "FinSeq") -> "FinSeq":
        return self._merge(other, +1)

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        return self._merge(other, -1)

    def __neg__(self) -> "FinSeq":
        return FinSeq(self.lattice, self.offset, -self.values)

    def __mul__(self, c) -> "FinSeq":
        return FinSeq(self.lattice, self.offset, _cmul(complex(c), self.values))

    __rmul__ = __mul__

    def __repr__(self) -> str:  # compact, index-annotated
        sup = self.support()
        if sup is None:
            return f"FinSeq({self.lattice.value}, 0)"
        values = tuple(self.values.tolist())
        return f"FinSeq({self.lattice.value}, offset={self.offset}, values={values})"


class SpaceKind(enum.Enum):
    C0 = "c0"
    C = "c"
    LQ = "lq"
    LINF = "linf"


@dataclass(frozen=True)
class SpaceSpec:
    """One of the sequence spaces c0, c, l^q (q >= 1), l^infinity."""

    kind: SpaceKind
    q: float | None = None

    def __post_init__(self):
        if self.kind is SpaceKind.LQ:
            if self.q is None or not (1.0 <= self.q < math.inf):
                raise ValueError("l^q requires a finite exponent q >= 1")
        elif self.q is not None:
            raise ValueError("only l^q carries an exponent")

    @classmethod
    def c0(cls) -> "SpaceSpec":
        return cls(SpaceKind.C0)

    @classmethod
    def c(cls) -> "SpaceSpec":
        return cls(SpaceKind.C)

    @classmethod
    def lq(cls, q: float) -> "SpaceSpec":
        return cls(SpaceKind.LQ, float(q))

    @classmethod
    def linf(cls) -> "SpaceSpec":
        return cls(SpaceKind.LINF)

    @classmethod
    def parse(cls, text: str) -> "SpaceSpec":
        """Parse 'c0', 'c', 'linf' or 'l<q>' such as 'l1', 'l2', 'l2.5'."""
        t = text.strip().lower()
        if t == "c0":
            return cls.c0()
        if t == "c":
            return cls.c()
        if t == "linf":
            return cls.linf()
        if t.startswith("l"):
            try:
                return cls.lq(float(t[1:]))
            except ValueError as exc:
                raise ValueError(f"bad space spec {text!r}") from exc
        raise ValueError(f"bad space spec {text!r}")

    def __str__(self) -> str:
        if self.kind is SpaceKind.LQ:
            q = self.q
            return f"l{int(q)}" if q == int(q) else f"l{q}"
        return self.kind.value


def norm(x: FinSeq, space: SpaceSpec) -> float:
    """Norm of a finitely supported sequence in the given space.

    c0, c and l^infinity all use the sup norm; l^q uses the usual
    q-th power sum, inf once it passes the float range.
    """
    return _row_norms(_abs(x.values)[None], space)[0]


def _row_norms(mags: np.ndarray, space: SpaceSpec) -> list[float]:
    """The norm of each row of a 2-D block of moduli; zero padding is free."""
    top = mags.max(axis=1, initial=0.0)
    if space.kind is not SpaceKind.LQ:
        return top.tolist()
    if space.q == 1.0:
        return _row_sums(mags).tolist()
    # rescale by the sup so q-th powers neither underflow nor overflow
    with np.errstate(invalid="ignore"):  # inf / inf; rows of sup 0, inf or nan are not read
        ratios = mags / np.where((top > 0.0) & (top < math.inf), top, math.inf)[:, None]
    totals = _row_sums(np.float_power(ratios, space.q)).tolist()
    root = 1.0 / space.q
    return [s * t**root if 0.0 < s < math.inf else s for s, t in zip(top.tolist(), totals)]


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D block of nonnegative float64 terms,
    inf where finite terms sum past the float range (module docstring)."""
    rows, n = terms.shape
    top = terms.max(axis=1, initial=0.0)
    out = np.where(top == 0.0, 0.0, math.nan)  # rows of +0 sum to +0; nan marks the rest
    fast = np.flatnonzero((top > 2.0**-900) & (top < 2.0**1000 / max(n, 1)))
    k = (2 * n - 1).bit_length()  # 2**k >= 2n
    e = np.frexp(top[fast])[1][:, None]  # top = f 2**e, 1/2 <= f < 1
    t = terms if len(fast) == rows else terms[fast]
    s1, s2 = np.ldexp(1.0, e + k), np.ldexp(1.0, e + 2 * k - 52)
    q1 = (s1 + t) - s1  # t to multiples of ulp(s1): every partial sum is exact
    q2 = (s2 + (t - q1)) - s2  # the exact rest, to multiples of ulp(s2) / 2
    a, b = q1.sum(axis=1), q2.sum(axis=1)
    s = a + b
    err = (a - (s - (s - a))) + (b - (s - a))  # a + b - s, exactly
    rest = np.ldexp(float(n), e[:, 0] + 2 * k - 105)  # bounds the sum q2 leaves out
    up, down = np.nextafter(s, np.inf) - s, s - np.nextafter(s, 0.0)
    sure = (err + rest < up / 2) & (rest - err < down / 2)
    out[fast[sure]] = s[sure]
    for i in np.flatnonzero(np.isnan(out)).tolist():
        try:  # in stored order: near the float max, fsum's choice to raise depends on it
            out[i] = math.fsum(terms[i].tolist())
        except OverflowError:
            out[i] = math.inf
    return out
