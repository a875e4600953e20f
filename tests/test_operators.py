import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walkdyn.dynamics import (
    _column_bound,
    constant_tail_obstruction,
    fhc_chaos_certificate,
    line_walk_lower_bound,
    orbit_density_probe,
    supercyclicity_criterion_certificate,
)
from walkdyn.operators import (
    BandedOp,
    Constant,
    ListWithTail,
    Periodic,
    make_walk,
    parse_pseq,
    pseq_text,
)
from walkdyn.seqspace import FinSeq, Lattice, SpaceSpec, norm

from conftest import apply_chain, dense_matrix, random_finseq, random_pseq

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
        idx = range(2 * half) if lattice is Lattice.HALF_LINE else range(-half, half)

        def exact(a, i, j):
            # entry() rounds 1 - p for p < 1/2: take each nonzero entry
            # exactly on the stated value, p_i on the move up and 1 - p_i
            # otherwise
            p = Fraction(repr(pseq.at(i)))
            return 0 if a == 0 else p if j == i + 1 else 1 - p

        # the last column (and the first, on the line) misses a row of its own
        first = 0 if lattice is Lattice.HALF_LINE else 1
        sums = [
            sum(exact(row[c], i, idx[c]) for row, i in zip(m, idx))
            for c in range(first, 2 * half - 1)
        ]
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


@pytest.mark.parametrize("n", [0, 1, 3])
def test_forward_orbits_reject_the_wrong_lattice_at_every_power(n):
    op = make_walk(Lattice.HALF_LINE, Constant(0.7))
    x = FinSeq.unit(-3, Lattice.LINE)
    with pytest.raises(ValueError, match="lattice does not match"):
        op.power_apply(n, x)
    with pytest.raises(ValueError, match="lattice does not match"):
        orbit_density_probe(op, x, [FinSeq.unit(0)], n_max=n)


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


# -- the forward loop: every report against the per-step apply chain ----

# zeros of both signs, and magnitudes that a probability factor rounds to 0
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 3e-323, -3e-323, 1.0, -1.0)


def _chain_windows(op, x, n):
    for y in apply_chain(op, x, n):
        yield y.offset, y.values


def _forward_case(rng):
    """A walk, a start vector and a step count: every form on either
    lattice, list prefixes starting at -3..3 on the line, entries that are
    real, complex with +0 or -0 parts, or small enough to underflow, the
    zero vector, and n up to 900 with p in 0.05..0.95 (or exactly 1/2,
    where half the smallest subnormal rounds to zero)."""
    lattice = rng.choice(list(Lattice))
    if rng.random() < 0.1:
        pseq = Constant(0.5)
    elif rng.random() < 0.4:
        pseq = _random_list(rng, rng.randint(-3, 3) if lattice is Lattice.LINE else 0)
    else:
        pseq = random_pseq(rng)
    edge, imag = rng.random() < 0.3, rng.randrange(4)

    def real_part():
        return rng.choice(_EDGE_VALUES) if edge and rng.random() < 0.5 else rng.uniform(-2, 2)

    def imag_part():
        return (0.0, rng.choice((0.0, -0.0)), real_part(), rng.choice(_EDGE_VALUES))[imag]

    values = [complex(real_part(), imag_part()) for _ in range(rng.randint(0, 6))]
    first = 0 if lattice is Lattice.HALF_LINE else -4
    x = FinSeq(lattice, rng.randint(first, 4), values)
    n = rng.randint(100, 900) if rng.random() < 0.1 else rng.choice((0, 1, 2, rng.randint(3, 60)))
    return make_walk(lattice, pseq), x, n


def _fixed_forward_cases():
    """Starts whose orbits hold signed zeros: at p = 1/2 a -0 imaginary
    part next to negative real parts leaves a -0 after one step, and a
    negative subnormal times 1/2 rounds to -0; and starts with a nan or
    an infinite entry."""
    half, line = (make_walk(lattice, Constant(0.5)) for lattice in Lattice)
    neg = complex(-1.0, -0.0)
    return [
        (half, FinSeq.zero(), 3),
        (line, FinSeq(Lattice.LINE, -2, [complex(-0.0, -0.0)]), 2),
        (half, FinSeq(Lattice.HALF_LINE, 0, [neg, 0.0, neg]), 1),
        (line, FinSeq(Lattice.LINE, -1, [neg, 0.0, neg]), 2),
        (line, FinSeq(Lattice.LINE, 0, [-5e-324, -0.0, -5e-324]), 1),
        (line, FinSeq(Lattice.LINE, 0, [-5e-324, -0.0, -5e-324]), 2),
        (line, FinSeq(Lattice.LINE, 0, [-5e-324, -0.0, -5e-324]), 3),
        (half, FinSeq(Lattice.HALF_LINE, 0, [complex("nan"), 1.0]), 2),
        (line, FinSeq(Lattice.LINE, -1, [1.0, complex("inf"), -0.0]), 2),
    ]


def _reference_probe(orbit, targets, space, threshold, projective):
    best = [(math.inf, -1)] * len(targets)
    visits = [[] for _ in targets]
    norms = []
    for step, y in enumerate(orbit):
        norms.append(norm(y, space))
        for k, t in enumerate(targets):
            if projective:
                den = math.fsum(abs(v) ** 2 for _, v in y.items())
                if den > 0:
                    c = sum(t.at(i) * v.conjugate() for i, v in y.items()) / den
                    d = norm(c * y - t, space)
                else:
                    d = norm(t, space)
            else:
                d = norm(y - t, space)
            if d < best[k][0]:
                best[k] = (d, step)
            if d <= threshold:
                visits[k].append(step)
    return {"orbit_norms": tuple(norms), "best": tuple(best), "visits": tuple(map(tuple, visits))}


def _reference_obstruction(orbit, alpha, i_probe):
    values, sups, ratios, devs = [], [], [], []
    for phi in orbit:
        value = alpha + phi.at(i_probe)
        sups.append(max([abs(alpha)] + [abs(alpha + v) for _, v in phi.items()]))
        values.append(value)
        ratios.append(abs(value) / sups[-1])
        devs.append(phi.sup_abs())
    return {
        "probe_values": tuple(values),
        "orbit_sups": tuple(sups),
        "probe_ratios": tuple(ratios),
        "deviation_sups": tuple(devs),
        "start_norm": sups[0],
        "floor_ratio": abs(alpha) / sups[0],
    }


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the inf start
def test_forward_loop_bits_match_the_apply_chain(monkeypatch):
    rng = random.Random(6006)
    spaces = (SpaceSpec.c0(), SpaceSpec.lq(1), SpaceSpec.lq(2.5))
    fixed = _fixed_forward_cases()
    for case in range(300):
        op, x, n = fixed[case] if case < len(fixed) else _forward_case(rng)
        orbit = list(apply_chain(op, x, n))
        got = op.power_apply(n, x)
        assert (got.offset, got.values.tobytes()) == (orbit[-1].offset, orbit[-1].values.tobytes())
        # every step, as the reports and the certificates read it; their
        # loops are kept short
        steps, space = min(n, 60), spaces[case % 3]
        got = [
            (lo, FinSeq(op.lattice, lo, values).values.tobytes())
            for lo, values in op._orbit(x, steps)
        ]
        assert got == [(y.offset, y.values.tobytes()) for y in orbit[: steps + 1]]
        targets = [
            random_finseq(rng, op.lattice, max_index=6, complex_entries=rng.random() < 0.5)
            for _ in range(rng.randint(1, 2))
        ]
        for projective in (False, True):
            report = orbit_density_probe(op, x, targets, space, steps, 1.0, projective)
            ref = _reference_probe(orbit[: steps + 1], targets, space, 1.0, projective)
            assert repr(report) == repr(replace(report, **ref))
        alpha = rng.choice((complex(1.5, -0.0), complex(-0.7, 0.4), 2.0 + 0.0j))
        i_probe = rng.randint(0 if op.lattice is Lattice.HALF_LINE else -3, 5)
        report = constant_tail_obstruction(op, alpha, x, i_probe, steps)
        ref = _reference_obstruction(orbit[: steps + 1], alpha, i_probe)
        assert repr(report) == repr(replace(report, **ref))
        line = make_walk(Lattice.LINE, Constant(round(rng.uniform(0.05, 0.95), 6)))
        xl = FinSeq(Lattice.LINE, x.offset, x.values)
        report = line_walk_lower_bound(line, xl, steps, space)
        norms = tuple(norm(y, space) for y in apply_chain(line, xl, steps))
        ref = {"step_norms": norms, "start_norm": norms[0], "measured": norms[-1]}
        assert repr(report) == repr(replace(report, **ref))
        if case % 30 == 0:
            # the certificates' forward loops, run once more on the chain
            walk = make_walk(Lattice.HALF_LINE, random_pseq(rng, 0.75, 0.95))
            lam = complex(rng.choice((-1, 1)) * rng.uniform(6.0, 12.0), rng.choice((0.0, -0.0, 0.5)))
            got = [
                fhc_chaos_certificate(walk, lam, space, n_max=12),
                supercyclicity_criterion_certificate(walk, space),
            ]
            with monkeypatch.context() as m:
                m.setattr(BandedOp, "_orbit", _chain_windows)
                want = [
                    fhc_chaos_certificate(walk, lam, space, n_max=12),
                    supercyclicity_criterion_certificate(walk, space),
                ]
            assert repr(got) == repr(want)


_HALF = make_walk(Lattice.HALF_LINE, Constant(0.7))
_LINE = make_walk(Lattice.LINE, Periodic((0.6, 0.3)))
_H, _L = Lattice.HALF_LINE, Lattice.LINE

_PROBE_EDGES = {
    # every target lies below the orbit's window for the first steps
    "below": (_HALF, FinSeq(_H, 20, [1.0, -0.5]), [FinSeq.unit(0), FinSeq(_H, 2, [0.5, 0, 0.25j])]),
    # every target lies above it
    "above": (_HALF, FinSeq.unit(0), [FinSeq(_H, 30, [1.0, 2.0 - 1.0j])]),
    # targets reaching past one end of the window, or both, and the empty one
    "straddling": (
        _HALF,
        FinSeq(_H, 4, [1.0, 2.0, -1.0]),
        [
            FinSeq(_H, 0, [0.5] + [0.0] * 12 + [1j]),
            FinSeq(_H, 5, [0.25, -0.5, 0.75 + 0.5j, 0.0, 0.0, 1.0]),
            FinSeq.zero(),
        ],
    ),
    # half the smallest subnormal rounds to zero: the orbit is 0 from step 1
    "dies-out": (
        make_walk(_H, Constant(0.5)),
        FinSeq(_H, 3, [5e-324]),
        [FinSeq.unit(2), FinSeq.zero(), FinSeq(_H, 1, [1j, 0.5])],
    ),
    # line targets at negative offsets, below and inside the window
    "line-negative": (
        _LINE,
        FinSeq(_L, -2, [1.0, 0.5]),
        [FinSeq(_L, -9, [0.25, -1.0]), FinSeq(_L, -3, [1j, 0.5 - 0.5j, 2.0])],
    ),
    # a complex start against complex targets
    "complex": (
        _LINE,
        FinSeq(_L, 1, [1 + 1j, -0.5j]),
        [FinSeq(_L, -4, [0.3 + 0.2j]), FinSeq(_L, 0, [1j, 0.0, -1 - 1j])],
    ),
}


@pytest.mark.parametrize("projective", [False, True], ids=["plain", "projective"])
@pytest.mark.parametrize("space", [SpaceSpec.c0(), SpaceSpec.lq(1), SpaceSpec.lq(2.5)], ids=str)
@pytest.mark.parametrize("case", _PROBE_EDGES)
def test_orbit_probe_edge_targets_match_the_reference(case, space, projective):
    op, x, targets = _PROBE_EDGES[case]
    report = orbit_density_probe(op, x, targets, space, 12, 1.0, projective)
    ref = _reference_probe(list(apply_chain(op, x, 12)), targets, space, 1.0, projective)
    assert repr(report) == repr(replace(report, **ref))


def test_orbit_probe_rejects_targets_on_another_lattice():
    with pytest.raises(ValueError, match="lattices"):
        orbit_density_probe(_HALF, FinSeq.unit(0), [FinSeq.unit(0, Lattice.LINE)])


def test_forward_loops_call_no_apply(monkeypatch):
    calls = []
    apply = BandedOp.apply
    monkeypatch.setattr(BandedOp, "apply", lambda op, x: calls.append(x) or apply(op, x))
    half = make_walk(Lattice.HALF_LINE, Periodic((0.7, 0.4)))
    line = make_walk(Lattice.LINE, Constant(0.7))
    x = FinSeq.from_values([1.0, -0.5j, 0.25], offset=1)
    xl = FinSeq.from_values([1.0, -0.5, 0.25], offset=-1, lattice=Lattice.LINE)
    half.power_apply(40, x)
    half.power_entry(40, 3, 1)
    for projective in (False, True):
        orbit_density_probe(half, x, [FinSeq.unit(2)], SpaceSpec.lq(2), 40, projective=projective)
    constant_tail_obstruction(line, 1.0 + 0.5j, xl, 0, 40)
    line_walk_lower_bound(line, xl, 40, SpaceSpec.lq(1))
    assert calls == []
