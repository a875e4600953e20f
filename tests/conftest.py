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


def apply_chain(op, x: FinSeq, n: int):
    """The reference orbit x, Ax, ..., A^n x: one ``apply`` per step."""
    yield x
    for _ in range(n):
        x = op.apply(x)
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
