import math
import random
from itertools import islice
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from walkdyn import dynamics

from walkdyn.classify import (
    Classification,
    SeriesOutcome,
    Verdict,
    classify,
    invariant_mass_series_terms,
    judge_series,
    kernel_decay_log_factors,
    transience_series_terms,
)
from walkdyn.inverse_kernel import kernel_basis, kernel_vector
from walkdyn.operators import Constant, ListWithTail, Periodic, make_walk
from walkdyn.seqspace import Lattice, SpaceSpec
from walkdyn.spectral import dual_point_spectrum_report, left_kernel_vector

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


@pytest.mark.parametrize(
    "pseq, expected",
    [
        # the same walk in two forms, one class: (1-p)/p is 1 - 4e-13
        (Periodic((0.5000000000001,)), Classification.TRANSIENT),
        (Constant(0.5000000000001), Classification.TRANSIENT),
        (Periodic((0.4999999999999,)), Classification.POSITIVE_RECURRENT),
        # the exact cycle product is 1 - 4.2e-13
        (Periodic((0.6, 0.4000000000001)), Classification.TRANSIENT),
        # 1 exactly on the stated values; on the floats' dyadic values it
        # is 1 + 2.6e-16
        (Periodic((0.7, 0.3)), Classification.NULL_RECURRENT),
    ],
    ids=["periodic-above-half", "const-above-half", "periodic-below-half",
         "pair-below-one", "pair-at-one"],
)
def test_knife_edge_decided_on_the_stated_values(pseq, expected):
    assert classify(pseq).verdict is expected


def test_list_with_tail_tail_decides():
    head = (0.2, 0.3, 0.9)
    assert classify(ListWithTail(head, 0.8)).verdict is Classification.TRANSIENT
    assert classify(ListWithTail(head, 0.2)).verdict is Classification.POSITIVE_RECURRENT


@pytest.mark.parametrize("horizon", [-1, 0])
def test_horizon_below_1_rejected(horizon):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        classify(Constant(0.6), horizon=horizon)


def test_classify_takes_no_method():
    # the exact cycle rule is the only route; the series are evidence only
    with pytest.raises(TypeError):
        classify(Constant(0.6), method="series")


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
    series = judge_series(transience_series_terms(pseq, 8), 8)
    assert series.terms == 8
    assert series.final == pytest.approx(t, rel=1e-12)
    m = 0.0
    prod = 1.0
    for n in range(1, 9):
        prod *= pseq.at(n - 1) / (1 - pseq.at(n))
        m += prod
    series = judge_series(invariant_mass_series_terms(pseq, 8), 8)
    assert series.final == pytest.approx(m, rel=1e-12)


def _loop_transience_terms(pseq):
    t = 1.0
    n = 1
    while True:
        p = pseq.at(n)
        t *= (1.0 - p) / p
        yield t
        n += 1


def _loop_invariant_mass_terms(pseq):
    t = 1.0
    n = 1
    while True:
        t *= pseq.at(n - 1) / (1.0 - pseq.at(n))
        yield t
        n += 1


def _loop_left_kernel_vector(pseq, n_max):
    u = [1.0]
    if n_max >= 1:
        u.append(-(1.0 - pseq.at(0)) / (1.0 - pseq.at(1)))
    for n in range(2, n_max + 1):
        p = pseq.at(n - 2)
        val = -(p / (1.0 - pseq.at(n))) * u[n - 2]
        if abs(val) > 1e280:
            break
        u.append(val)
    return u


def test_running_products_bits_match_the_scalar_loops():
    """Both series and the left kernel vector keep the bits of the scalar
    loops they replace, through overflow to inf, underflow to 0 and the
    1e280 cut."""

    def hexes(xs):
        return [x.hex() for x in xs]

    rng = random.Random(15)
    extremes, cut = set(), False
    for lo, hi in ((0.001, 0.2), (0.8, 0.999), (0.05, 0.95)):
        for _ in range(12):
            pseq = random_pseq(rng, lo, hi)
            for n in (0, 1, 2, 3000):
                got = transience_series_terms(pseq, n)
                assert hexes(got) == hexes(islice(_loop_transience_terms(pseq), n))
                mass = invariant_mass_series_terms(pseq, n)
                assert hexes(mass) == hexes(islice(_loop_invariant_mass_terms(pseq), n))
                dual = left_kernel_vector(pseq, n)
                assert hexes(dual) == hexes(_loop_left_kernel_vector(pseq, n))
                extremes.update(x for x in got + mass if x in (0.0, math.inf))
                cut = cut or len(dual) <= n
    assert extremes == {0.0, math.inf} and cut  # the products reached both and the cut fired
    # a cut inside the first read window of p, and one past three doublings
    for p, n_max, length in ((0.999, 300, 188), (0.7, 3000, 1522)):
        dual = left_kernel_vector(Constant(p), n_max)
        assert len(dual) == length
        assert hexes(dual) == hexes(_loop_left_kernel_vector(Constant(p), n_max))


def test_kernel_weight_recursion():
    rng = random.Random(7)
    for _ in range(20):
        pseq = random_pseq(rng)
        w = [abs(u) for u in kernel_vector(pseq, 30)]
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
        w = [abs(u) for u in kernel_vector(pseq, base + step + 2)]
        for start, factor in ((base, even), (base + 1, odd)):
            measured = math.log(w[start + step]) - math.log(w[start])
            assert measured == pytest.approx(factor, rel=1e-9, abs=1e-12)


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
        # the head drives the transience series past 1e6 by term 7, although
        # the tail ratio is 2/3 and the series converges
        (ListWithTail((0.1,) * 10, 0.6), Classification.TRANSIENT),
        # the head drives the partial sums of both series past 1e6
        (ListWithTail((0.5, 0.001, 0.001, 0.999, 0.999, 0.999, 0.999), 0.5),
         Classification.NULL_RECURRENT),
    ],
)
def test_list_with_tail_exact(pseq, expected):
    assert classify(pseq).verdict is expected


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 9999), min_size=1, max_size=5),
    st.lists(st.integers(1, 9999), max_size=3),
)
def test_exact_rule_agrees_with_the_float_rule_off_the_band(digits, mirrored):
    # decimal cycles, some values mirrored about 1/2 so that products land
    # near 1: wherever every float log lies farther than 1e-12 L from 0,
    # the 1e-12 rules this package used before give the exact answers
    pseq = Periodic(tuple(d / 10000 for d in digits + [10000 - d for d in mirrored]))
    band = 1e-12 * len(pseq.cycle)
    log_ratio = math.fsum(math.log1p(-p) - math.log(p) for p in pseq.cycle)
    even, odd = kernel_decay_log_factors(pseq)
    assume(min(abs(log_ratio), abs(even), abs(odd)) > band)

    expected = Classification.TRANSIENT if log_ratio < 0 else Classification.POSITIVE_RECURRENT
    assert classify(pseq).verdict is expected
    # a dual chain's log factor is minus a kernel chain's
    for space, member in ((SpaceSpec.c0(), even > 1e-12 and odd > 1e-12),
                          (SpaceSpec.lq(1), even >= -1e-12 and odd >= -1e-12)):
        rep = dual_point_spectrum_report(pseq, space, n_max=4)
        assert (rep.zero_is_dual_eigenvalue is Verdict.YES) is member
    trivial = even >= -1e-12 or odd >= -1e-12
    op = make_walk(Lattice.HALF_LINE, pseq)
    try:
        kernel_basis(op, 1, 1)
        raised = False
    except ValueError as exc:
        raised = "kernel is trivial" in str(exc)
    assert raised is trivial
    with mock.patch.object(dynamics, "kernel_window_for_tol", side_effect=ValueError("skipped")):
        cert = dynamics.supercyclicity_criterion_certificate(op, SpaceSpec.c0())
    assert ("kernel is trivial" in cert.reason) is trivial
