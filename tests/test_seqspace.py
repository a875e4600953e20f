import math

import pytest
from hypothesis import given, strategies as st

from walkdyn.seqspace import FinSeq, Lattice, SpaceKind, SpaceSpec, norm

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
