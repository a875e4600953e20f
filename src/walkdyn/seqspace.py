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
representative realizes it the same way in each; norms are written once
on moduli, for ``FinSeq`` and the forward loop alike.  Powers of moduli
(the l^q ``r**q``, the projective probe's ``|v|**2``) stay ``**`` on Python
floats, that is libm ``pow``, which numpy's square does not match (with
glibc 2.36 and numpy 2.4 it differs from ``r**2`` on 740 of 900,000
uniform doubles in [0, 1)).
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
    q-th power sum.
    """
    return _norm_of_moduli(_abs(x.values), space)


def _norm_of_moduli(mags: np.ndarray, space: SpaceSpec) -> float:
    """The norm of a sequence whose entries have the moduli mags."""
    if space.kind is SpaceKind.LQ:
        q = space.q
        if q == 1.0:
            return math.fsum(mags.tolist())
        # rescale by the sup so q-th powers neither underflow nor overflow
        scale = float(mags.max(initial=0.0))
        if scale == 0.0 or not math.isfinite(scale):
            return scale
        total = math.fsum([r**q for r in (mags / scale).tolist()])
        return scale * total ** (1.0 / q)
    return float(mags.max(initial=0.0))
