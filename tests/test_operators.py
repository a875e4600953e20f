import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from walkdyn.dynamics import _column_bound
from walkdyn.operators import (
    BandedOp,
    Constant,
    ListWithTail,
    Periodic,
    make_walk,
    parse_pseq,
    pseq_text,
)
from walkdyn.seqspace import FinSeq, Lattice

from conftest import dense_matrix, random_finseq, random_pseq

probs = st.floats(min_value=0.05, max_value=0.95)


def _random_list(rng, start):
    head = tuple(round(rng.uniform(0.05, 0.95), 6) for _ in range(rng.randint(1, 6)))
    return ListWithTail(head, round(rng.uniform(0.05, 0.95), 6), start)


def _walks(rng, count):
    """(operator, complex_entries): count random walks on either lattice
    with real inputs, count more with complex inputs, then count list
    walks on the line whose prefix starts at -3, with complex inputs."""
    for k in range(3 * count):
        if k < 2 * count:
            pseq = random_pseq(rng)
            yield make_walk(rng.choice(list(Lattice)), pseq), k >= count
        else:
            yield make_walk(Lattice.LINE, _random_list(rng, -3)), True


def _dense_action(op, x, size, transpose=False):
    """Entries of A x (or A' x) on the dense block, by parts, as {index: (re, im)}."""
    m = dense_matrix(op, size)
    base = 0 if op.lattice is Lattice.HALF_LINE else -(size // 2)
    out = {}
    for r in range(size):
        terms = [
            (m[c][r] if transpose else m[r][c], x.at(base + c)) for c in range(size)
        ]
        out[base + r] = tuple(
            math.fsum(a * getattr(v, part) for a, v in terms) for part in ("real", "imag")
        )
    return out


def test_constant_entries():
    op = make_walk(Lattice.HALF_LINE, Constant(0.7))
    assert op.entry(0, 0) == pytest.approx(0.3)
    assert op.entry(0, 1) == pytest.approx(0.7)
    assert op.entry(3, 2) == pytest.approx(0.3)
    assert op.entry(3, 4) == pytest.approx(0.7)
    assert op.entry(3, 3) == 0.0
    assert op.entry(5, 2) == 0.0


def test_line_has_no_holding():
    op = make_walk(Lattice.LINE, Constant(0.7))
    assert op.entry(0, 0) == 0.0
    assert op.entry(0, -1) == pytest.approx(0.3)
    assert op.entry(0, 1) == pytest.approx(0.7)
    assert op.entry(-4, -5) == pytest.approx(0.3)


def test_rows_are_stochastic():
    rng = random.Random(11)
    for _ in range(20):
        pseq = random_pseq(rng)
        for lattice in Lattice:
            op = make_walk(lattice, pseq)
            lo = 0 if lattice is Lattice.HALF_LINE else -6
            for i in range(lo, 7):
                first = max(0, i - 2) if lattice is Lattice.HALF_LINE else i - 2
                row = [op.entry(i, j) for j in range(first, i + 3)]
                assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)
                assert all(v >= 0 for v in row)


def test_pseq_forms_at():
    lt = ListWithTail((0.2, 0.8), 0.6)
    assert lt.at(0) == 0.2
    assert lt.at(1) == 0.8
    assert lt.at(2) == 0.6
    assert lt.at(100) == 0.6
    per = Periodic((0.3, 0.9))
    assert per.at(0) == 0.3
    assert per.at(1) == 0.9
    assert per.at(2) == 0.3
    assert per.at(-1) == 0.9  # line lattice wraps negative sites


@pytest.mark.parametrize(
    "text",
    ["const:0.75", "list:0.5,0.6;tail=0.75", "periodic:0.6,0.4"],
)
def test_parse_pseq_round_trip(text):
    pseq = parse_pseq(text)
    assert parse_pseq(pseq_text(pseq)) == pseq


@pytest.mark.parametrize(
    "text",
    ["", "const", "const:1.5", "const:0", "list:0.5", "huh:0.5", "const:0.5;tail=0.6"],
)
def test_parse_pseq_rejects(text):
    with pytest.raises(ValueError):
        parse_pseq(text)


def test_apply_matches_dense_matrix():
    rng = random.Random(23)
    for op, complex_entries in _walks(rng, 25):
        x = random_finseq(rng, op.lattice, max_index=8, complex_entries=complex_entries)
        y = op.apply(x)
        for i, (re, im) in _dense_action(op, x, 24).items():
            assert y.at(i).real == pytest.approx(re, abs=1e-12)
            assert y.at(i).imag == pytest.approx(im, abs=1e-12)


def test_apply_transpose_matches_dense_transpose():
    rng = random.Random(37)
    for op, complex_entries in _walks(rng, 15):
        x = random_finseq(rng, op.lattice, max_index=8, complex_entries=complex_entries)
        y = op.apply_transpose(x)
        for j, (re, im) in _dense_action(op, x, 24, transpose=True).items():
            assert y.at(j).real == pytest.approx(re, abs=1e-12)
            assert y.at(j).imag == pytest.approx(im, abs=1e-12)


def test_apply_transpose_is_adjoint():
    rng = random.Random(31)
    for op, complex_entries in _walks(rng, 20):
        x = random_finseq(rng, op.lattice, max_index=8, complex_entries=complex_entries)
        y = random_finseq(rng, op.lattice, max_index=8, complex_entries=complex_entries)
        left = sum(v * op.apply(x).at(i) for i, v in y.items())
        right = sum(v * op.apply_transpose(y).at(i) for i, v in x.items())
        assert left == pytest.approx(right, rel=1e-10, abs=1e-12)


def test_column_bound_is_largest_dense_column_sum():
    rng = random.Random(41)
    for _ in range(60):
        lattice = rng.choice(list(Lattice))
        if rng.random() < 0.5:
            pseq = _random_list(rng, rng.choice((-5, -3, -1, 0, 2)))
        else:
            pseq = random_pseq(rng)
        op = make_walk(lattice, pseq)
        # the block holds the prefix and two cycles on each side of it
        half = abs(pseq.start) + len(pseq.prefix) + 2 * len(pseq.cycle) + 4
        m = dense_matrix(op, 2 * half)
        # the last column (and the first, on the line) misses a row of its own
        first = 0 if lattice is Lattice.HALF_LINE else 1
        sums = [math.fsum(abs(row[c]) for row in m) for c in range(first, 2 * half - 1)]
        assert _column_bound(op) == max(sums)


def test_power_apply_iterates_apply():
    rng = random.Random(47)
    op = make_walk(Lattice.HALF_LINE, random_pseq(rng))
    x = random_finseq(rng, Lattice.HALF_LINE)
    y = x
    for n in range(5):
        assert op.power_apply(n, x) == y
        y = op.apply(y)


def test_power_entry_matches_row():
    rng = random.Random(59)
    for _ in range(10):
        op = make_walk(Lattice.HALF_LINE, random_pseq(rng))
        n = rng.randint(0, 6)
        i = rng.randint(0, 5)
        row = op.power_row(n, i)
        for j in range(0, i + n + 2):
            assert op.power_entry(n, i, j) == pytest.approx(
                row.at(j).real, abs=1e-14
            )


def test_power_rows_sum_to_one():
    op = make_walk(Lattice.HALF_LINE, Periodic((0.35, 0.8, 0.55)))
    for n in (1, 2, 5, 9):
        for i in (0, 1, 4):
            row = op.power_row(n, i)
            assert math.fsum(v.real for _, v in row.items()) == pytest.approx(
                1.0, abs=1e-12
            )


def test_apply_rejects_wrong_lattice():
    op = make_walk(Lattice.HALF_LINE, Constant(0.6))
    with pytest.raises(ValueError):
        op.apply(FinSeq.unit(0, Lattice.LINE))


def test_negative_power_rejected(walk_075):
    with pytest.raises(ValueError):
        walk_075.power_apply(-1, FinSeq.unit(0))


@given(probs, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=8))
@settings(max_examples=40, deadline=None)
def test_half_line_powers_reach_exact_band(p, n, i):
    # after n steps the walk can sit at most n sites away
    op = make_walk(Lattice.HALF_LINE, Constant(p))
    row = op.power_row(n, i)
    sup = row.support()
    assert sup is not None
    lo, hi = sup
    assert lo >= max(0, i - n)
    assert hi <= i + n
