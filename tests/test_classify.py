import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from walkdyn.classify import (
    Classification,
    SeriesOutcome,
    classify,
    invariant_mass_series_partial,
    judge_series,
    kernel_decay_log_factors,
    kernel_weights,
    transience_series_partial,
)
from walkdyn.operators import Constant, ListWithTail, Periodic
from walkdyn.seqspace import Lattice

from conftest import random_pseq


@pytest.mark.parametrize(
    "p,expected",
    [
        (0.3, Classification.POSITIVE_RECURRENT),
        (0.5, Classification.NULL_RECURRENT),
        (0.7, Classification.TRANSIENT),
    ],
)
def test_constant_exact(p, expected):
    v = classify(Constant(p))
    assert v.verdict is expected
    assert v.method == "exact-constant"


def test_line_constant():
    assert classify(Constant(0.5), lattice=Lattice.LINE).verdict is Classification.NULL_RECURRENT
    assert classify(Constant(0.8), lattice=Lattice.LINE).verdict is Classification.TRANSIENT
    assert classify(Constant(0.2), lattice=Lattice.LINE).verdict is Classification.TRANSIENT


def test_periodic_exact():
    # cycle ratio (0.3/0.7)*(0.7/0.3) = 1 exactly in logs
    assert classify(Periodic((0.7, 0.3))).verdict is Classification.NULL_RECURRENT
    assert classify(Periodic((0.7, 0.6))).verdict is Classification.TRANSIENT
    assert classify(Periodic((0.3, 0.4))).verdict is Classification.POSITIVE_RECURRENT


def test_list_with_tail_tail_decides():
    head = (0.2, 0.3, 0.9)
    assert classify(ListWithTail(head, 0.8)).verdict is Classification.TRANSIENT
    assert classify(ListWithTail(head, 0.2)).verdict is Classification.POSITIVE_RECURRENT


def test_series_method_agrees_on_constants():
    for p, expected in [(0.3, Classification.POSITIVE_RECURRENT), (0.7, Classification.TRANSIENT)]:
        v = classify(Constant(p), horizon=1500, method="series")
        assert v.method == "series-policy"
        assert v.verdict is expected


def test_series_method_rejects_line():
    with pytest.raises(ValueError):
        classify(Constant(0.7), lattice=Lattice.LINE, method="series")
    with pytest.raises(ValueError):
        classify(Constant(0.7), method="nonsense")


def test_judge_series_geometric():
    dec = judge_series((0.5**k for k in range(1, 400)), 399)
    assert dec.outcome is SeriesOutcome.CONVERGES
    dec = judge_series((1.1**k for k in range(1, 400)), 399)
    assert dec.outcome is SeriesOutcome.DIVERGES


def test_judge_series_harmonic_is_undetermined():
    dec = judge_series((1.0 / k for k in range(1, 2000)), 1999)
    assert dec.outcome is SeriesOutcome.UNDETERMINED
    assert dec.decided_at is None


def test_judge_series_first_decision_sticks():
    short = judge_series((0.5**k for k in range(1, 100)), 99)
    long = judge_series((0.5**k for k in range(1, 500)), 499)
    assert short.outcome is long.outcome is SeriesOutcome.CONVERGES
    assert short.decided_at == long.decided_at


def test_partial_sums_match_direct_products():
    pseq = Periodic((0.6, 0.45, 0.7))
    # independent recomputation of both series heads
    t = 0.0
    prod = 1.0
    for n in range(1, 9):
        prod *= (1 - pseq.at(n)) / pseq.at(n)
        t += prod
    assert transience_series_partial(pseq, 8) == pytest.approx(t, rel=1e-12)
    m = 0.0
    prod = 1.0
    for n in range(1, 9):
        prod *= pseq.at(n - 1) / (1 - pseq.at(n))
        m += prod
    assert invariant_mass_series_partial(pseq, 8) == pytest.approx(m, rel=1e-12)


def test_kernel_weight_recursion():
    rng = random.Random(7)
    for _ in range(20):
        pseq = random_pseq(rng)
        w = kernel_weights(pseq, 30)
        assert w[0] == 1.0
        for n in range(len(w) - 2):
            ratio = (1 - pseq.at(n + 1)) / pseq.at(n + 1)
            assert w[n + 2] == pytest.approx(w[n] * ratio, rel=1e-12)


def test_kernel_decay_log_factors_constant():
    even, odd = kernel_decay_log_factors(Constant(0.75))
    expect = math.log(1 / 3)
    assert even == pytest.approx(expect, rel=1e-12)
    assert odd == pytest.approx(expect, rel=1e-12)
    even, odd = kernel_decay_log_factors(Constant(0.5))
    assert even == pytest.approx(0.0, abs=1e-15)


def test_kernel_decay_log_factors_match_weights():
    # the per-cycle log factor equals the measured log ratio of far weights;
    # a cycle spans 2 indices for constant-tail forms, one full +2 orbit of
    # the residues for periodic ones
    rng = random.Random(99)
    for _ in range(20):
        pseq = random_pseq(rng, lo=0.3, hi=0.9)
        if isinstance(pseq, Periodic):
            length = len(pseq.values)
            step = 2 * length if length % 2 else length
        else:
            step = 2
        even, odd = kernel_decay_log_factors(pseq)
        base = 40  # past any list head
        w = kernel_weights(pseq, base + step + 2)
        for start, factor in ((base, even), (base + 1, odd)):
            measured = math.log(w[start + step]) - math.log(w[start])
            assert measured == pytest.approx(factor, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_verdict_monotone_in_horizon(p):
    pseq = Constant(round(p, 6))
    a = classify(pseq, horizon=400, method="series").verdict
    b = classify(pseq, horizon=2000, method="series").verdict
    if a is not Classification.UNDETERMINED:
        assert a is b


@pytest.mark.parametrize(
    "pseq,expected",
    [
        # a finite prefix changes finitely many series factors; the tail decides
        (ListWithTail((0.9,) * 30, 0.45), Classification.POSITIVE_RECURRENT),
        (ListWithTail((0.1,) * 30, 0.6), Classification.TRANSIENT),
        (ListWithTail((0.9,) * 20, 0.5), Classification.NULL_RECURRENT),
        (ListWithTail((0.3, 0.7), 0.501), Classification.TRANSIENT),
        (ListWithTail((0.3, 0.7), 0.499), Classification.POSITIVE_RECURRENT),
        (ListWithTail((0.3, 0.7), 0.5), Classification.NULL_RECURRENT),
    ],
)
def test_list_with_tail_exact(pseq, expected):
    assert classify(pseq).verdict is expected
