import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkdyn.seqspace import FinSeq, Lattice, SpaceKind, SpaceSpec, norm
from walkdyn.seqspace import _row_norms, _row_sums

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def seqs(lattice=Lattice.HALF_LINE):
    lo = 0 if lattice is Lattice.HALF_LINE else -10
    return st.builds(
        lambda off, vals: FinSeq.from_values(vals, offset=off, lattice=lattice),
        st.integers(min_value=lo, max_value=10),
        st.lists(finite_floats, min_size=0, max_size=12),
    )


def test_unit_and_at():
    e3 = FinSeq.unit(3)
    assert e3.at(3) == 1
    assert e3.at(2) == 0
    assert e3.at(100) == 0
    assert e3.support() == (3, 3)


def test_zero_is_zero():
    z = FinSeq.zero()
    assert z.is_zero
    assert z.support() is None
    assert z.sup_abs() == 0.0


def test_half_line_rejects_negative_offset():
    with pytest.raises(ValueError):
        FinSeq.from_values([1.0], offset=-1, lattice=Lattice.HALF_LINE)
    FinSeq.from_values([1.0], offset=-1, lattice=Lattice.LINE)  # fine on the line


def test_lattice_mismatch_rejected():
    a = FinSeq.unit(0, Lattice.HALF_LINE)
    b = FinSeq.unit(0, Lattice.LINE)
    with pytest.raises(ValueError):
        a + b


@given(seqs(), seqs())
def test_addition_pointwise(x, y):
    s = x + y
    lo = min((x.support() or (0, 0))[0], (y.support() or (0, 0))[0])
    hi = max((x.support() or (0, 0))[1], (y.support() or (0, 0))[1])
    for i in range(lo, hi + 1):
        assert s.at(i) == x.at(i) + y.at(i)


@given(seqs())
def test_sub_self_is_zero(x):
    assert (x - x).is_zero


@given(seqs(), finite_floats)
def test_scalar_multiplication(x, c):
    y = x * c
    for i, v in x.items():
        assert y.at(i) == v * c


@given(seqs())
def test_trim_preserves_values(x):
    t = x.trim()
    sup = x.support()
    if sup is None:
        assert t.is_zero
    else:
        for i in range(sup[0], sup[1] + 1):
            assert t.at(i) == x.at(i)


@given(seqs())
def test_norm_ordering(x):
    # l1 dominates l2 dominates sup; c0/c/linf norms all equal the sup
    l1 = norm(x, SpaceSpec.lq(1))
    l2 = norm(x, SpaceSpec.lq(2))
    s = norm(x, SpaceSpec.c0())
    assert l1 >= l2 - 1e-9 * max(1, l1)
    assert l2 >= s - 1e-9 * max(1, l2)
    assert s == x.sup_abs()
    assert norm(x, SpaceSpec.c()) == s
    assert norm(x, SpaceSpec.linf()) == s


scalars = finite_floats.filter(lambda c: c == 0 or abs(c) > 1e-100)


@given(seqs(), scalars)
def test_norm_homogeneity(x, c):
    for space in (SpaceSpec.c0(), SpaceSpec.lq(1), SpaceSpec.lq(2)):
        assert norm(x * c, space) == pytest.approx(
            abs(c) * norm(x, space), rel=1e-9, abs=1e-200
        )


@given(seqs(), seqs())
def test_norm_triangle(x, y):
    for space in (SpaceSpec.c0(), SpaceSpec.lq(1), SpaceSpec.lq(2)):
        assert norm(x + y, space) <= norm(x, space) + norm(y, space) + 1e-9


# moduli from 0 and the subnormals up to 1e308, with inf and nan
moduli = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e308),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e-320, max_value=1e308),
    st.sampled_from([0.0, 5e-324, math.inf, math.nan]),
)
LISTED_Q = [1.0000001, 1.01, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3, 100.0]
exponents = st.one_of(
    st.sampled_from(LISTED_Q),
    st.floats(min_value=1.0, max_value=200.0, exclude_min=True),
)


def _lq_reference(mags: np.ndarray, q: float) -> float:
    """The l^q norm with Python's per-entry ``r**q``."""
    scale = float(mags.max(initial=0.0))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * math.fsum([r**q for r in (mags / scale).tolist()]) ** (1 / q)


@settings(max_examples=300)
@given(st.lists(moduli, max_size=16), exponents)
def test_lq_norm_takes_pythons_pow(mags, q):
    # the powers themselves too, since a last-bit change in one can round
    # away in the norm
    mags = np.array(mags, np.float64)
    scale = float(mags.max(initial=0.0))
    if 0.0 < scale < math.inf:
        y = mags / scale
        assert repr(np.float_power(y, q).tolist()) == repr([r**q for r in y.tolist()])
    assert repr(_row_norms(mags[None], SpaceSpec.lq(q))[0]) == repr(_lq_reference(mags, q))


def _fsum_or_inf(row) -> float:
    """math.fsum, with inf where finite terms sum past the float range."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def _norm_reference(mags: np.ndarray, space: SpaceSpec) -> float:
    """The per-window rule: the sup, fsum, or the rescaled l^q sum with Python's pow."""
    if space.kind is not SpaceKind.LQ:
        return float(mags.max(initial=0.0))
    if space.q == 1.0:
        return _fsum_or_inf(mags.tolist())
    return _lq_reference(mags, space.q)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


# terms of one row: uniform, any exponent from the subnormals up, ties (integer
# multiples of one power of two near 2**53), near the float max, and inf or nan
_ROW_TERMS = [
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023)),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
    st.sampled_from([math.inf, math.nan, 1.0]),
]


@st.composite
def _blocks(draw):
    width = draw(st.integers(0, 40))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, len(_ROW_TERMS)))
        if kind == len(_ROW_TERMS):  # ties: m * 2**e for m near 2**53 and small
            e = draw(st.integers(-1074, 960))
            m = st.one_of(st.integers(2**52, 2**54), st.integers(0, 16))
            terms = st.builds(math.ldexp, m.map(float), st.just(e))
        else:
            terms = _ROW_TERMS[kind]
        rows.append(draw(st.lists(terms, min_size=width, max_size=width)))
    return np.array(rows, np.float64).reshape(len(rows), width)


@settings(max_examples=1000)
@given(_blocks())
def test_row_sums_are_fsum_bit_for_bit(block):
    assert _hex(_row_sums(block)) == _hex(_fsum_or_inf(row.tolist()) for row in block)


def test_row_sums_of_empty_and_one_row_blocks():
    assert _row_sums(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert _row_sums(np.zeros((0, 4))).tolist() == []
    row = [0.1, 0.2, 0.3, 1e-20, 7.0]
    assert _hex(_row_sums(np.array([row]))) == _hex([math.fsum(row)])


def test_row_sums_leave_only_the_fallback_rows_to_fsum(monkeypatch):
    fsum, seen = math.fsum, []

    def spy(row):
        seen.append(row)
        return fsum(row)

    rows = {
        "tiny": [1e-300, 3e-301, 0.0],  # sup at most 2**-900
        "huge": [1e308, 1e308, 0.0],  # sup at least 2**1000 / 3, past the float max
        "inf": [math.inf, 1.0, 0.0],
        "nan": [1.0, math.nan, 2.0],
        "tie": [1.0, 2.0**-53, 0.0],  # 1 + 2**-53 sits halfway: no bracket decides it
        "plain": [0.1, 0.2, 0.3],
        "zero": [0.0, 0.0, 0.0],
    }
    monkeypatch.setattr(math, "fsum", spy)
    got = _row_sums(np.array(list(rows.values())))
    monkeypatch.undo()
    assert repr(seen) == repr([rows[k] for k in ("tiny", "huge", "inf", "nan", "tie")])
    assert _hex(got) == _hex(_fsum_or_inf(row) for row in rows.values())
    assert got.tolist()[1:3] == [math.inf, math.inf] and got[4] == 1.0


def test_l1_norm_passes_the_float_range_to_inf():
    # as l^1.5, l^2 and l^3 do; fsum raised "intermediate overflow"
    assert norm(FinSeq.from_values([1e308, 1e308]), SpaceSpec.lq(1)) == math.inf
    x = FinSeq.from_values([1.5e308, 1.5e308])
    assert [norm(x, SpaceSpec.lq(q)) for q in (1, 1.5, 2, 3)] == [math.inf] * 4


_BLOCK_SPACES = [SpaceSpec.c0(), *(SpaceSpec.lq(q) for q in (1, 1.5, 2, 3))]


@settings(max_examples=300)
@given(st.lists(st.lists(moduli, max_size=12), min_size=1, max_size=6))
def test_row_norms_of_padded_rows_are_the_per_window_norms(rows):
    block = np.zeros((len(rows), max(map(len, rows))))
    for i, row in enumerate(rows):
        block[i, : len(row)] = row
    for space in _BLOCK_SPACES:
        want = [_norm_reference(np.array(row, np.float64), space) for row in rows]
        assert repr(_row_norms(block, space)) == repr(want)


@pytest.mark.parametrize("q", LISTED_Q)
def test_float_power_is_pythons_pow_on_many_draws(q):
    # the rule of the l^q norm and the projective probe; np.square and
    # np.power differ from r**2 on about 1 uniform draw in 1,200
    rng = np.random.default_rng(17)
    mags = np.concatenate((rng.random(20_000), 10.0 ** rng.uniform(-320, 0, 20_000)))
    assert np.float_power(mags, q).tolist() == [r**q for r in mags.tolist()]


@pytest.mark.parametrize(
    "text,kind,q",
    [
        ("c0", SpaceKind.C0, None),
        ("c", SpaceKind.C, None),
        ("linf", SpaceKind.LINF, None),
        ("l1", SpaceKind.LQ, 1.0),
        ("l2", SpaceKind.LQ, 2.0),
        ("l2.5", SpaceKind.LQ, 2.5),
    ],
)
def test_space_parse(text, kind, q):
    sp = SpaceSpec.parse(text)
    assert sp.kind is kind
    assert sp.q == q
    assert SpaceSpec.parse(str(sp)) == sp


@pytest.mark.parametrize("text", ["", "l0.5", "lq", "ell2", "c1", "l1e400", "linfinity"])
def test_space_parse_rejects(text):
    with pytest.raises(ValueError):
        SpaceSpec.parse(text)


def test_lq_exponent_validation():
    with pytest.raises(ValueError):
        SpaceSpec(SpaceKind.LQ, 0.5)
    with pytest.raises(ValueError):  # str() of it raised OverflowError
        SpaceSpec(SpaceKind.LQ, math.inf)
    with pytest.raises(ValueError):
        SpaceSpec(SpaceKind.C0, 2.0)
