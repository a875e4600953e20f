import functools
import math
import random

import pytest

from walkdyn.operators import Constant, ListWithTail, Periodic, make_walk
from walkdyn.seqspace import FinSeq, Lattice


def random_pseq(rng: random.Random, lo: float = 0.05, hi: float = 0.95):
    """One of the three probability-sequence forms with entries in (lo, hi)."""
    form = rng.randrange(3)
    if form == 0:
        return Constant(round(rng.uniform(lo, hi), 6))
    if form == 1:
        head = tuple(round(rng.uniform(lo, hi), 6) for _ in range(rng.randint(1, 5)))
        return ListWithTail(head, round(rng.uniform(lo, hi), 6))
    vals = tuple(round(rng.uniform(lo, hi), 6) for _ in range(rng.randint(1, 5)))
    return Periodic(vals)


def random_finseq(
    rng: random.Random,
    lattice: Lattice = Lattice.HALF_LINE,
    max_index: int = 12,
    complex_entries: bool = False,
) -> FinSeq:
    lo = 0 if lattice is Lattice.HALF_LINE else -max_index
    entries = {}
    for _ in range(rng.randint(1, 8)):
        idx = rng.randint(lo, max_index)
        val = rng.uniform(-3, 3)
        if complex_entries:
            val = complex(val, rng.uniform(-3, 3))
        entries[idx] = val
    offset = min(entries)
    values = [entries.get(i, 0.0) for i in range(offset, max(entries) + 1)]
    return FinSeq.from_values(values, offset=offset, lattice=lattice)


@functools.lru_cache(maxsize=1 << 16)
def _row(op, i: int):
    """Row i of A as (j, A_{i,j}, A_{i,i+1}) from ``op.entry``: j = i - 1,
    or 0 on row 0 of the half-line, where the down move holds."""
    j = max(i - 1, 0) if op.lattice is Lattice.HALF_LINE else i - 1
    return j, complex(op.entry(i, j)), complex(op.entry(i, i + 1))


def apply_entrywise(op, x: FinSeq) -> FinSeq:
    """A x row by row from ``op.entry``, the bit reference of every forward
    loop: row i is complex(A_{i,i-1}) x_{i-1} + complex(A_{i,i+1}) x_{i+1}
    (row 0 of the half-line reads A_{0,0} x_0), on the rows from one below
    the support of x (row 0 at the least) to one above it.  x is read on
    its trimmed support, so it is +0 off it; ``complex(a) * z`` is a
    complex product, rounded as ``_cmul`` rounds on every Python version."""
    x = x.trim()
    sup = x.support()
    if sup is None:
        return FinSeq.zero(op.lattice)
    lo, hi = sup
    first = max(lo - 1, 0) if op.lattice is Lattice.HALF_LINE else lo - 1
    entries = dict(x.items())
    values = []
    for i in range(first, hi + 2):
        j, a, b = _row(op, i)
        values.append(a * entries.get(j, 0j) + b * entries.get(i + 1, 0j))
    return FinSeq(op.lattice, first, values)


def apply_chain(op, x: FinSeq, n: int):
    """The reference orbit x, Ax, ..., A^n x: one ``apply_entrywise`` per step."""
    yield x
    for _ in range(n):
        x = apply_entrywise(op, x)
        yield x


def dense_matrix(op, size: int):
    """Dense top-left block of the operator, an independent comparison point."""
    if op.lattice is Lattice.HALF_LINE:
        return [[op.entry(i, j) for j in range(size)] for i in range(size)]
    half = size // 2
    idx = range(-half, size - half)
    return [[op.entry(i, j) for j in idx] for i in idx]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def walk_075():
    return make_walk(Lattice.HALF_LINE, Constant(0.75))
