import cmath
import gc
import hashlib
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkdyn import inverse_kernel
from walkdyn.inverse_kernel import (
    TailNotDecayingError,
    _backward,
    _chain_horizon,
    _kept,
    jump_ratio,
    kernel_basis,
    kernel_vector,
    kernel_window_for_tol,
    ratio_bound,
    right_inverse,
    right_inverse_power,
    step_norm_bound,
)
from walkdyn.operators import Constant, ListWithTail, Periodic, make_walk
from walkdyn.seqspace import FinSeq, Lattice, SpaceSpec, _abs, _cmul, norm

from conftest import random_finseq, random_pseq


def walk(pseq):
    return make_walk(Lattice.HALF_LINE, pseq)


def test_known_preimage_of_e0(walk_075):
    u = right_inverse(walk_075, FinSeq.unit(0))
    assert u.at(0) == 0
    assert u.at(1).real == pytest.approx(4 / 3, rel=1e-14)
    assert u.at(2) == 0
    assert u.at(3).real == pytest.approx(-4 / 9, rel=1e-14)
    assert (walk_075.apply(u) - FinSeq.unit(0)).sup_abs() < 1e-12


def test_first_coordinate_always_zero(walk_075):
    rng = random.Random(3)
    for _ in range(10):
        v = random_finseq(rng)
        u = right_inverse(walk_075, v)
        assert u.at(0) == 0


def test_identity_randomized_constant_and_inhomogeneous():
    rng = random.Random(17)
    for _ in range(40):
        if rng.random() < 0.5:
            pseq = Constant(round(rng.uniform(0.55, 0.95), 6))
        else:
            pseq = random_pseq(rng, lo=0.55, hi=0.95)
        op = walk(pseq)
        v = random_finseq(rng)
        u = right_inverse(op, v)
        assert (op.apply(u) - v).sup_abs() < 1e-10


def test_power_inverse_prefix_zeros_and_identity(walk_075):
    rng = random.Random(29)
    for n in (1, 2, 5, 9):
        v = random_finseq(rng, max_index=6)
        u = right_inverse_power(walk_075, v, n)
        for i in range(n):
            assert u.at(i) == 0
        y = u
        for _ in range(n):
            y = walk_075.apply(y)
        assert (y - v).sup_abs() < 1e-9


def test_decay_bound_in_sup_and_lq():
    rng = random.Random(37)
    for p in (0.6, 0.75, 0.9):
        op = walk(Constant(p))
        factor = 1.0 / (2 * p - 1)
        for space in (SpaceSpec.c0(), SpaceSpec.lq(1), SpaceSpec.lq(2)):
            v = random_finseq(rng, max_index=8)
            start = norm(v, space)
            u = v
            for n in range(1, 21):
                u = right_inverse(op, u)
                assert norm(u, space) <= factor**n * start * (1 + 1e-10)


def test_step_norm_bound_forms():
    assert step_norm_bound(walk(Constant(0.75))) == pytest.approx(2.0)
    assert step_norm_bound(walk(Constant(0.9))) == pytest.approx(1.25)
    # mixed sequence: finite and at least the constant-tail value
    b = step_norm_bound(walk(ListWithTail((0.7,), 0.8)))
    assert math.isfinite(b)
    assert b >= 1.0
    assert math.isinf(step_norm_bound(walk(Constant(0.4))))


def test_jump_ratio_and_bound():
    assert jump_ratio(0.8) == pytest.approx((0.8 - 1) / 0.8)
    assert ratio_bound(walk(Constant(0.8))) == pytest.approx(0.25)


def test_tail_not_decaying_raises():
    op = walk(Constant(0.4))
    with pytest.raises(TailNotDecayingError) as exc:
        right_inverse(op, FinSeq.unit(0))
    assert exc.value.last_magnitude > 0
    with pytest.raises(TailNotDecayingError):  # a nan threshold has no horizon to stop at
        right_inverse(walk(Constant(0.75)), FinSeq.unit(0), tol=math.nan)


def test_slow_tail_past_the_cap_raises_at_once():
    # the chains decay, but stay above 1e-13 until about index 1.5e8
    start = time.perf_counter()
    with pytest.raises(TailNotDecayingError) as exc:
        right_inverse(walk(Constant(0.5000001)), FinSeq.unit(0))
    assert time.perf_counter() - start < 1.0
    assert "153133769" in str(exc.value) and "2000000" in str(exc.value)
    assert exc.value.last_magnitude == 1 / 0.5000001  # |u_1| at the support edge


@pytest.mark.parametrize(
    "p, length, digest",
    [
        (0.5001, 153135, "4c889f60f9d378e318523d5ea379091e5c4d1634257575d9a8af2962815aa665"),
        (0.50001, 1531339, "37c67181f6541200b765b3a496b3b2be5d14b745b6191954b990409401e8cdf2"),
    ],
)
def test_slow_tails_below_the_cap_still_return(p, length, digest):
    u = right_inverse(walk(Constant(p)), FinSeq.unit(0))
    assert (u.offset, len(u.values)) == (1, length)
    assert hashlib.sha256(u.values.tobytes()).hexdigest() == digest


def _reference_kept(mags, threshold):
    """Entries left of a window once its longest trailing run whose moduli
    sum to at most threshold is dropped, the sums exact; the first stays."""
    total, k = Fraction(0), 0
    for m in reversed(mags[1:]):
        total += Fraction(float(m))
        if total > Fraction(threshold):
            break
        k += 1
    return len(mags) - k


def _reference_right_inverse(op, v, tol, max_support):
    """right_inverse as the plain loop over indices in Python complex, on v
    without the trailing run it drops."""
    vt = v.trim()
    top = vt.sup_abs()
    threshold = max(tol * top, 5e-324) if top > 0 else tol * top
    if max_support is None and 0 < threshold < math.inf:
        lo = vt.support()[0]
        mags = [abs(complex(x)) for x in vt.values]
        vt = FinSeq(Lattice.HALF_LINE, lo, vt.values[: _reference_kept(mags, threshold)])
    hi = vt.support()[1]
    u = [0j]
    for n in range(1, hi + 2):
        p = op.pseq.at(n - 1)
        u.append(vt.at(n - 1) / p + jump_ratio(p) * u[max(n - 2, 0)])
    if max_support is not None:
        cap = max(max_support, hi + 2)
    else:
        horizon = _chain_horizon(op.pseq, hi, (abs(u[hi]), abs(u[hi + 1])), threshold)
        cap = hi + 128 if math.isinf(horizon) else max(horizon, hi) + 2
    for n in range(hi + 2, cap + 1):
        p = op.pseq.at(n - 1)
        u.append(vt.at(n - 1) / p + jump_ratio(p) * u[n - 2])
        if abs(u[n]) <= threshold and abs(u[n - 1]) <= threshold:
            return FinSeq(Lattice.HALF_LINE, 0, u).trim()
    if max_support is None and math.isinf(horizon):
        raise TailNotDecayingError("tail has not decayed", max(abs(u[-1]), abs(u[-2])))
    if not all(map(cmath.isfinite, u)):  # the truncated tail of a finite target
        raise OverflowError("the preimage passes the float range")
    return FinSeq(Lattice.HALF_LINE, 0, u).trim()


def _outcome(f, *args):
    try:
        u = f(*args)
    except (TailNotDecayingError, OverflowError) as exc:
        return type(exc).__name__
    return u.offset, u.values.tobytes()


def _random_inverse_case(rng):
    def prob(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    tail = prob(0.52, 0.95) if rng.random() < 0.8 else prob(0.05, 0.48)
    form = rng.randrange(3)
    if form == 0:
        pseq = Constant(tail)
    elif form == 1:
        pseq = ListWithTail(tuple(prob(0.05, 0.95) for _ in range(rng.randint(1, 80))), tail)
    else:
        pseq = Periodic((tail,) + tuple(prob(0.3, 0.95) for _ in range(rng.randint(0, 4))))
    parts = (0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-3, 3))
    values = [complex(rng.choice(parts), rng.choice(parts)) for _ in range(rng.randint(1, 30))]
    values.append(rng.choice((1.0, -0.5j)))
    if rng.random() < 0.5:  # a trailing run for the cut, about tol or below
        run = rng.randint(1, 6)
        values += [rng.uniform(-1, 1) * 10.0 ** -rng.randint(7, 32) for _ in range(run)]
    v = FinSeq.from_values(values, rng.randint(0, 40))
    max_support = rng.choice((None, None, rng.randint(0, 200)))
    return walk(pseq), v, rng.choice((1e-8, 1e-13, 1e-30)), max_support


@pytest.mark.parametrize("p, v", [(0.51, 1e-320), (0.51, 1e-315), (0.6, 5e-324)])
def test_a_subnormal_tail_that_decays_returns(p, v):
    # tol * sup|v| underflowed to 0, so the tail had no threshold to reach; and
    # a subnormal tail that rounding holds a few ulps up never reaches the least
    # positive one: both raised TailNotDecayingError, although p > 1/2
    op, target = walk(Constant(p)), FinSeq.from_values([v])
    u = right_inverse(op, target)
    assert (op.apply(u) - target).sup_abs() <= 1e-322
    assert _outcome(right_inverse, op, target, 1e-13, None) == _outcome(
        _reference_right_inverse, op, target, 1e-13, None
    )


def test_a_tail_past_the_float_range_reports_it():
    # before, the float plane's overflow was redone in complex, where the tail
    # turned to nan: a TailNotDecayingError at |tail| ~ 0, or nan entries
    op, v = walk(Constant(0.4)), FinSeq.from_values([1e300])
    with pytest.raises(TailNotDecayingError) as exc:
        right_inverse(op, v)
    assert exc.value.last_magnitude == math.inf and "|tail| ~ inf" in str(exc.value)
    with pytest.raises(OverflowError, match="the preimage passes the float range"):
        right_inverse(op, v, max_support=200)



def test_finite_entries_whose_sum_passes_the_float_range_are_no_overflow():
    # the last two entries are finite, about 1.31e308 each; the test read
    # their sum, which is not, and raised "the preimage passes the float range"
    op, v = walk(Constant(0.99)), FinSeq.from_values([1.3e308, 1.3e308])
    (_, _), (lo, u) = _backward(op, v, 1)
    assert lo == 1 and u.dtype == np.float64 and np.isfinite(u).all()
    assert u[0] == u[1] == 1.3e308 / 0.99
    want = _outcome(_reference_right_inverse, op, v, 1e-13, None)
    assert _outcome(right_inverse, op, v, 1e-13, None) == want

def test_right_inverse_bits_match_the_plain_loop():
    rng = random.Random(2024)
    cases = [_random_inverse_case(rng) for _ in range(400)]
    # tails whose moduli overflow, with and without max_support
    cases += [
        (walk(Constant(1e-4)), FinSeq.unit(0), 1e-13, 200),
        (walk(Constant(1e-5)), FinSeq.from_values([1 + 1j]), 1e-13, None),
    ]
    binds = 0
    for op, v, tol, max_support in cases:
        want = _outcome(_reference_right_inverse, op, v, tol, max_support)
        assert _outcome(right_inverse, op, v, tol, max_support) == want
        mags = _abs(v.trim().values)
        binds += max_support is None and _reference_kept(mags, tol * mags.max()) < len(mags)
    assert binds > 50, binds


def test_right_inverse_power_bits_match_repeated_right_inverse():
    # one run of the backward loop gives n calls of right_inverse bit for bit,
    # raises included; max_support does not cut the iterates between steps
    rng = random.Random(2026)
    seen = {"max_support": 0, "no max_support": 0, "raised": 0}
    for _ in range(200):
        op, v, tol, max_support = _random_inverse_case(rng)
        n = rng.randint(1, 5)
        want = v
        try:
            for _ in range(n):
                want = right_inverse(op, want, tol, max_support)
        except (TailNotDecayingError, OverflowError) as exc:
            with pytest.raises(type(exc)) as got:
                right_inverse_power(op, v, n, tol, max_support)
            assert str(got.value) == str(exc)
            seen["raised"] += 1
            continue
        got = right_inverse_power(op, v, n, tol, max_support)
        assert (got.offset, got.values.tobytes()) == (want.offset, want.values.tobytes())
        seen["no max_support" if max_support is None else "max_support"] += 1
    assert min(seen.values()) > 0, seen


def test_backward_windows_drop_their_trailing_mass():
    # each step reads its window without the trailing run below tolerance;
    # before, the windows grew by one entry a step (1,035 and 2,035 entries)
    op, v = walk(Constant(0.9)), FinSeq.from_values([1.0, -0.5], 2)
    lengths = [len(x) for _, x in _backward(op, v, 2000, 1.25)]
    assert lengths[1000] < 500 and lengths[2000] < 800  # 449 and 771


@pytest.mark.parametrize(
    "mags, threshold, kept",
    [
        ([2.0, 1.0, 1e-17], 1.0, 2),  # the float sum 1e-17 + 1.0 rounds to 1.0
        ([1.0, 0.1, 0.2], 0.3, 2),  # 0.1 + 0.2 exceeds the double 0.3 exactly
        ([1.0, 0.1, 0.2], 0.30000000000000004, 1),
        ([1.0, 0.5, 0.25], 0.75, 1),  # a sum equal to the threshold is dropped
        ([1.0, 0.0, 0.5, 0.0, 0.0], 0.25, 3),  # zeros go with the run
        ([1.5e308, 1.5e308, 1.5e308], 1.4e308, 3),  # the float sums overflow
        ([1.0, 0.5], 2.0, 1),  # the first entry stays
        # the float sum of the 5 trailing moduli rounds above the threshold
        # (1.291666666666667), their exact sum does not: the step up from 4 to 5
        ([2.0, 0.0375, 0.05, 0.16666666666666666, 1.0, 0.0375], 1.2916666666666667, 1),
    ],
)
def test_the_cut_compares_the_sums_exactly(mags, threshold, kept):
    with np.errstate(over="ignore"):  # as in the backward step
        assert _kept(np.array(mags), threshold) == _reference_kept(mags, threshold) == kept


_MODULUS = st.floats(0, 1.7e308) | st.sampled_from([0.0, 5e-324, 1e-30, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(_MODULUS, min_size=1, max_size=10), _MODULUS.filter(lambda t: t > 0))
def test_the_cut_drops_the_longest_trailing_run_within_the_threshold(mags, threshold):
    with np.errstate(over="ignore"):  # as in the backward step
        assert _kept(np.array(mags), threshold) == _reference_kept(mags, threshold)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([None, 1.7, -2.5, 0.6 + 1.9j]))
def test_every_backward_step_cuts_its_whole_window(seed, real, lam):
    # on both planes, each step hands _kept the moduli of the window it yielded
    # whole, at the tail's threshold tol * sup|x|, and the cut is the longest
    # trailing run whose moduli sum to at most that threshold
    op, v, tol, _ = _random_inverse_case(random.Random(seed))
    if real:  # the start on the float plane, its last entry still nonzero
        v = FinSeq(Lattice.HALF_LINE, v.offset, v.values.real + v.values.imag)
    cuts, windows = [], []

    def spy(mags, threshold):
        cuts.append((mags, threshold, _kept(mags, threshold)))
        return cuts[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse_kernel, "_kept", spy)
        try:
            for _, x in _backward(op, v, 4, lam, tol):
                windows.append(x)
        except (TailNotDecayingError, OverflowError):
            pass
    assert cuts
    windows[0] = v.trim().values  # the start is yielded as given, and read on its support
    for (mags, threshold, kept), x in zip(cuts, windows):
        assert np.array_equal(mags, _abs(x)) and threshold == tol * float(mags.max())
        assert kept == _reference_kept(mags.tolist(), threshold)


def test_max_support_runs_read_every_window_whole(monkeypatch):
    # the kernel basis's rows and inverse --max-support keep the caller's window
    monkeypatch.setattr(inverse_kernel, "_kept", lambda *_: pytest.fail("a window was cut"))
    kernel_basis(walk(Constant(0.6)), 5, 300, tol=1e-60)
    v = FinSeq.from_values([1.0, 0.0, 1e-20], 3)
    u = right_inverse_power(walk(Constant(0.75)), v, 3, max_support=50)
    assert u.support()[1] >= 5


@pytest.mark.parametrize(
    "pseq, message",
    [
        # the chain that S e0 starts on decays at once; the next step's
        # stays above 1e-13 until about index 1.5e8, past _TAIL_CAP
        (Periodic((0.8, 0.5000001)), "more than the cap of 2000000 indices"),
        # the growing chain is exactly zero in S e0, not in S^2 e0
        (Periodic((0.6852, 0.3205)), "do not eventually exceed one half"),
    ],
)
def test_backward_loop_raises_at_the_failing_step(pseq, message):
    op = walk(pseq)
    with pytest.raises(TailNotDecayingError) as want:
        right_inverse(op, right_inverse(op, FinSeq.unit(0)))
    assert message in str(want.value)
    yielded = []
    with pytest.raises(TailNotDecayingError) as got:
        for item in _backward(op, FinSeq.unit(0), 3):
            yielded.append(item)
    assert len(yielded) == 2  # e0 and S e0
    assert str(got.value) == str(want.value)
    assert got.value.last_magnitude == want.value.last_magnitude
    with pytest.raises(TailNotDecayingError, match=message):
        right_inverse_power(op, FinSeq.unit(0), 3)


def test_backward_loop_leaves_no_reference_cycle():
    # a cycle through the loop's step function kept each run's p and r
    # arrays alive until a full collection: certify's peak RSS grew by
    # about 3 MiB over a 36 s run
    gc.collect()
    right_inverse(walk(Constant(0.75)), FinSeq.unit(0))
    right_inverse(walk(Constant(0.75)), FinSeq.from_values([1 + 2j, -0.5j]))
    with pytest.raises(OverflowError, match="the preimage passes the float range"):
        right_inverse(walk(Constant(1e-4)), FinSeq.unit(0), max_support=200)
    list(_backward(walk(Periodic((0.7, 0.85))), FinSeq.unit(0), 5, -3.0))
    assert gc.collect() == 0


@pytest.mark.parametrize("lam", [None, 2.0, -3.0])
@pytest.mark.parametrize(
    "values, flat",
    [
        ([1.0, 0.0, -0.5], True),  # +0 imaginary parts
        ([1.0, complex(0.0, -0.0), -0.5], False),  # a -0 imaginary part
        ([1.0, math.inf], False),  # a non-finite entry
        ([1.0, 0.5j], False),  # complex entries
    ],
)
def test_both_orbit_loops_take_the_float_plane_by_one_rule(values, flat, lam):
    # before, under a real lam a start with -0 imaginary parts took the
    # float plane backward, but not forward
    op = walk(Constant(0.75))
    v = FinSeq.from_values(values, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 on complex128
        _, (_, forward) = op._orbit(v, 1)
        _, (_, backward) = _backward(op, v, 1, lam)
    assert forward.dtype == backward.dtype == (np.float64 if flat else np.complex128)


def test_a_negative_max_support_raises(walk_075):
    # it acted as max_support=0
    with pytest.raises(ValueError, match="max_support must be nonnegative"):
        right_inverse(walk_075, FinSeq.unit(0), max_support=-3)
    with pytest.raises(ValueError, match="max_support must be nonnegative"):
        right_inverse_power(walk_075, FinSeq.unit(0), 2, max_support=-3)


def test_max_support_cap_honored(walk_075):
    u = right_inverse(walk_075, FinSeq.unit(0), max_support=40)
    sup = u.support()
    assert sup is not None and sup[1] <= 40


def test_a_far_max_support_reads_only_as_far_as_the_tail_goes(walk_075):
    # the tail stops at index 57; p and r far past it are never read
    tracemalloc.start()
    try:
        u = right_inverse(walk_075, FinSeq.unit(0), max_support=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    want = right_inverse(walk_075, FinSeq.unit(0))
    assert (u.offset, u.values.tobytes()) == (want.offset, want.values.tobytes())


def test_max_support_below_the_target_cuts_two_past_it(walk_075):
    # the cut is at max(max_support, hi + 2), hi the target's last index
    v = FinSeq.from_values([1.0] * 11, lattice=Lattice.HALF_LINE)
    assert right_inverse(walk_075, v, max_support=5).support() == (1, 12)


def test_kernel_window_scales_with_tolerance():
    w8 = kernel_window_for_tol(Constant(0.75), 1e-8)
    w30 = kernel_window_for_tol(Constant(0.75), 1e-30)
    assert w8 < w30
    with pytest.raises(ValueError):
        kernel_window_for_tol(Constant(0.5), 1e-8)


def test_kernel_basis_identity_minor_and_annihilation():
    for p in (0.6, 0.75, 0.9):
        op = walk(Constant(p))
        for n in (1, 2, 4):
            window = kernel_window_for_tol(Constant(p), 1e-14) + n
            basis = kernel_basis(op, n, window)
            assert len(basis) == n
            for i, b in enumerate(basis):
                for j in range(n):
                    assert b.at(j) == (1.0 if i == j else 0.0)
                assert op.power_apply(n, b).sup_abs() < 1e-10


def test_kernel_basis_inhomogeneous():
    pseq = Periodic((0.7, 0.85))
    op = walk(pseq)
    window = kernel_window_for_tol(pseq, 1e-14) + 2
    basis = kernel_basis(op, 2, window)
    for b in basis:
        assert op.power_apply(2, b).sup_abs() < 1e-10


def test_kernel_basis_rejects_non_decaying():
    with pytest.raises(ValueError):
        kernel_basis(walk(Constant(0.5)), 1, 50)


def test_knife_edge_decided_on_the_stated_values():
    # (1-p)/p = 1 - 4e-13: the chains decay, too slowly for the tail cap,
    # and ker W is nontrivial
    op = walk(Constant(0.5000000000001))
    with pytest.raises(TailNotDecayingError, match="decays too slowly"):
        right_inverse(op, FinSeq.unit(0))
    (v,) = kernel_basis(op, 1, 8)
    assert v.at(0) == 1


def _reference_columns(op, lo, y):
    """(first column, columns) of the column action on the complex rows
    stacked in y, a scatter along the band onto zeros."""
    m = y.shape[-1]
    up, down = op._band(np.arange(lo, lo + m))
    out = np.zeros(y.shape[:-1] + (m + 2,), np.complex128)
    out[..., 2:] += _cmul(up, y)
    moved = _cmul(down, y)
    out[..., :-2] += moved
    if lo == 0:  # half-line: row 0 holds at column 0
        out[..., 1] += moved[..., 0]
        return 0, out[..., 1:]
    return lo - 1, out


def _reference_rows(op, n, window):
    """Rows of W^n from n column actions on blocks of 64 coordinate vectors."""
    rows = []
    for j0 in range(0, window, 64):
        j1 = min(j0 + 64, window)
        lo, block = j0, np.eye(j1 - j0, dtype=np.complex128)
        for _ in range(n):
            lo, block = _reference_columns(op, lo, block)
        for r, j in enumerate(range(j0, j1)):
            rows.append(block[r, max(0, j - n) - lo : j + n + 1 - lo].tolist())
    return rows


def _reference_kernel_basis(op, n, window, tol):
    """kernel_basis solved from complex rows, every vector."""
    rows = _reference_rows(op, n, window)
    basis = []
    for i in range(n):
        u = [1.0 + 0.0j if k == i else 0.0 + 0.0j for k in range(n)]
        for j, row in enumerate(rows):
            acc = 0.0 + 0.0j
            for c, uk in zip(row, u[max(0, j - n) : j + n]):
                acc += c * uk
            u.append(-acc / row[-1].real)
        last = len(u) - 1
        while last > 0 and abs(u[last]) < tol and abs(u[last - 1]) < tol:
            last -= 1
        basis.append(FinSeq(Lattice.HALF_LINE, 0, u[: last + 1]))
    return basis


def _random_kernel_case(rng):
    def prob(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    tail = prob(0.52, 0.97)
    form = rng.randrange(3)
    if form == 0:
        pseq = Constant(tail)
    elif form == 1:
        values = tuple(prob(0.05, 0.97) for _ in range(rng.randint(1, 40)))
        pseq = ListWithTail(values, tail, rng.randint(-3, 4))
    else:
        pseq = Periodic((tail,) + tuple(prob(0.55, 0.95) for _ in range(rng.randint(0, 3))))
    window = rng.choice((rng.randint(1, 70), rng.randint(60, 200)))
    return walk(pseq), rng.randint(1, 8), window, 10.0 ** -rng.randint(6, 60)


def _sup_relative(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_kernel_basis_matches_the_row_solve():
    rng = random.Random(5150)
    for _ in range(320):
        op, n, window, tol = _random_kernel_case(rng)
        basis = kernel_basis(op, n, window, tol)
        want = _reference_kernel_basis(op, n, window, tol)
        for b, ref in zip(basis, want, strict=True):
            assert (b.offset, len(b.values)) == (ref.offset, len(ref.values))
            assert _sup_relative(b.values, ref.values) <= 1e-9
        count = rng.randint(1, n)
        first = kernel_basis(op, n, window, tol, count=count)
        assert [b.values.tobytes() for b in first] == [b.values.tobytes() for b in basis[:count]]



def _cut_kernel_basis(op, n, window, tol):
    """kernel_basis by the per-row cut loop: complex128 rows, row k the
    right_inverse of row k - 1 cut at the window, the minor solved in Python
    complex and the combination summed through _cmul.  Also returns whether
    some preimage reached past the window, so that the cut bound."""
    size = window + n
    powers = np.zeros((n, size), np.complex128)
    powers[0] = kernel_vector(op.pseq, size - 1)
    cut = False
    for k in range(1, n):
        s = right_inverse(op, FinSeq(Lattice.HALF_LINE, 0, powers[k - 1]), tol, size - 1)
        powers[k, s.offset : s.offset + len(s.values)] = s.values[: size - s.offset]
        cut |= s.offset + len(s.values) > size
    minor = powers[:, :n].T.tolist()
    basis = []
    for i in range(n):
        c = []
        for j in range(i, n):
            acc = (1.0 if j == i else 0.0) + 0j
            for mk, ck in zip(minor[j][i:j], c):
                acc -= mk * ck
            c.append(acc / minor[j][j])
        v = np.zeros(size, np.complex128)
        for ck, row in zip(c, powers[i:]):
            v += _cmul(ck, row)
        v[:n] = 0.0
        v[i] = 1.0
        big = np.flatnonzero(~(_abs(v) < tol))
        last = min(int(big[-1]) + 1, size - 1) if len(big) else 0
        basis.append(FinSeq(Lattice.HALF_LINE, 0, v[: last + 1]))
    return basis, cut


def test_kernel_basis_bits_match_the_per_row_cut_loop():
    # one backward run gives the rows the cut loop gives: entry j of a
    # preimage reads only entries below j, so the cut moves no entry inside
    # the window; windows of 1 to 3 make the cut bind
    rng = random.Random(4242)
    cases = [_random_kernel_case(rng) for _ in range(300)]
    for _ in range(300):
        op, n, _, _ = _random_kernel_case(rng)
        cases.append((op, n, rng.randint(1, 3), 10.0 ** -rng.uniform(2, 60)))
    cut = 0
    for op, n, window, tol in cases:
        want, binds = _cut_kernel_basis(op, n, window, tol)
        got = kernel_basis(op, n, window, tol)
        assert [(b.offset, b.values.tobytes()) for b in got] == [
            (b.offset, b.values.tobytes()) for b in want
        ], (op.pseq, n, window, tol)
        cut += binds
    assert cut > 100, cut


def _exact_kernel_basis(pseq, n, size):
    """Pinned basis of ker W^n on [0, size) in exact rational arithmetic,
    from the kernel vector and the right-inverse recurrence."""
    p = [Fraction(pseq.at(j)) for j in range(size)]
    r = [(pj - 1) / pj for pj in p]
    u = [Fraction(1)]
    for j in range(1, size):
        u.append(r[j - 1] * u[max(j - 2, 0)])
    powers = [u]
    for _ in range(1, n):
        v, s = powers[-1], [Fraction(0)]
        for j in range(1, size):
            s.append(v[j - 1] / p[j - 1] + r[j - 1] * s[max(j - 2, 0)])
        powers.append(s)
    basis = []
    for i in range(n):
        c = {}
        for j in range(i, n):
            acc = Fraction(int(j == i)) - sum(powers[k][j] * c[k] for k in range(i, j))
            c[j] = acc / powers[j][j]
        basis.append([sum(c[k] * powers[k][j] for k in c) for j in range(size)])
    return basis


def test_kernel_basis_is_exact_to_rounding():
    rng = random.Random(5150)
    worst = 0.0
    for _ in range(320):
        op, n, window, tol = _random_kernel_case(rng)
        if window > 40:
            continue
        basis = kernel_basis(op, n, window, tol)
        exact = _exact_kernel_basis(op.pseq, n, window + n)
        for b, want in zip(basis, exact, strict=True):
            got = b.values.real
            ref = np.array([float(x) for x in want[: len(got)]])
            assert not b.values.imag.any()
            worst = max(worst, _sup_relative(got, ref))
    assert worst <= 1e-13



def test_a_kernel_vector_past_the_float_range_raises():
    # the weights grow by 999 every other index through the prefix and pass
    # the float range: the basis came out with inf and nan entries
    op = walk(ListWithTail((0.001,) * 240, 0.9))
    with pytest.raises(OverflowError, match="the kernel vector passes the float range"):
        kernel_basis(op, 2, 300)

def test_kernel_basis_rejects_count_outside_the_power(walk_075):
    for count in (0, 3):
        with pytest.raises(ValueError, match="count"):
            kernel_basis(walk_075, 2, 40, count=count)


def test_kernel_vectors_decay_like_weights():
    op = walk(Constant(0.75))
    window = kernel_window_for_tol(Constant(0.75), 1e-14) + 1
    (b,) = kernel_basis(op, 1, window)
    sup = b.support()
    mags = [abs(b.at(i)) for i in range(sup[1] + 1)]
    weights = [abs(u) for u in kernel_vector(Constant(0.75), sup[1])]
    assert weights[6] / weights[4] == pytest.approx((1 - 0.75) / 0.75, rel=1e-15)
    for i in range(4, sup[1] - 2, 2):
        assert mags[i + 2] == pytest.approx(mags[i] * weights[i + 2] / weights[i], rel=1e-9)


def test_kernel_window_raises_when_cap_binds():
    # the weights at index 12000 are still about 0.09 here
    with pytest.raises(ValueError, match="cap"):
        kernel_window_for_tol(Constant(0.5001), 1e-12)


def _reference_weights(pseq, n_max):
    """Kernel weights w_0..w_n_max by their own recursion, with w_0 = 1,
    w_1 = (1-p_0)/p_0 and w_n = w_{n-2} (1-p_{n-1})/p_{n-1}."""
    w = [1.0, (1.0 - pseq.at(0)) / pseq.at(0)]
    for n in range(2, n_max + 1):
        p = pseq.at(n - 1)
        w.append(w[n - 2] * (1.0 - p) / p)
    return w[: n_max + 1]


def _reference_kernel_vector(pseq, n_max):
    """kernel_vector as the per-entry loop u_n = r_{n-1} u_{max(n-2, 0)}, u_0 = 1."""
    u = [1.0]
    for n in range(1, n_max + 1):
        u.append(jump_ratio(pseq.at(n - 1)) * u[max(n - 2, 0)])
    return u


def test_kernel_vector_bits_match_the_per_entry_loop():
    # each parity chain is one running product; the bits are the loop's,
    # overflow to inf included
    rng = random.Random(3000)
    overflowed = 0
    for k in range(600):
        if k % 3 == 0:
            pseq = Constant(rng.uniform(0.01, 0.99))
        elif k % 3 == 1:
            head = tuple(rng.uniform(0.01, 0.99) for _ in range(rng.randint(1, 30)))
            pseq = ListWithTail(head, rng.uniform(0.01, 0.99))
        else:
            pseq = Periodic(tuple(rng.uniform(0.01, 0.99) for _ in range(rng.randint(1, 6))))
        n = rng.randint(0, 3000)
        got = kernel_vector(pseq, n)
        assert [x.hex() for x in got] == [x.hex() for x in _reference_kernel_vector(pseq, n)]
        overflowed += not all(map(math.isfinite, got))
    assert overflowed > 0


def _reference_window(pseq, tol, cap=12000):
    """kernel_window_for_tol with the weights taken from _reference_weights."""
    horizon = _chain_horizon(pseq, 0, tuple(_reference_weights(pseq, 1)), tol)
    if math.isinf(horizon):
        raise ValueError(
            "kernel weights do not decay (some parity chain has per-cycle "
            "growth factor >= 1), so no finite window reaches the tolerance"
        )
    if horizon <= cap:
        w = _reference_weights(pseq, horizon)
        last = max((n for n, wn in enumerate(w) if wn >= tol), default=-1)
        window = last + 2 * len(pseq.cycle) + 2
        if window <= cap:
            return window
    raise ValueError(
        f"no kernel window up to cap={cap} reaches tol={tol:g}: the kernel "
        f"weights stay above it until about index {horizon}"
    )


def test_kernel_window_matches_the_reference_weights():
    # the window read off |kernel_vector| is the window read off the weight
    # recursion, raises included, on 2,400 seeded (pseq, tol) cases
    rng = random.Random(2024)

    def prob():
        return rng.uniform(0.5, 0.6) if rng.random() < 0.3 else rng.uniform(0.05, 0.95)

    outcomes = {"window": 0, "no decay": 0, "cap": 0}
    for k in range(2400):
        if k % 3 == 0:
            pseq = Constant(prob())
        elif k % 3 == 1:
            head = tuple(prob() for _ in range(rng.randint(1, 8)))
            pseq = ListWithTail(head, prob(), rng.randint(-5, 5))
        else:
            pseq = Periodic(tuple(prob() for _ in range(rng.randint(1, 6))))
        tol = 10.0 ** rng.uniform(-80, -3)
        try:
            expected = _reference_window(pseq, tol)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                kernel_window_for_tol(pseq, tol)
            assert str(got.value) == str(exc)
            outcomes["cap" if "cap=" in str(exc) else "no decay"] += 1
        else:
            assert kernel_window_for_tol(pseq, tol) == expected, (pseq, tol)
            outcomes["window"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_kernel_window_covers_a_rising_prefix():
    # the weights dip below tol early in the prefix, then climb back to ~1
    pseq = ListWithTail((0.999,) * 12 + (0.001,) * 12, 0.6)
    n = kernel_window_for_tol(pseq, 1e-8)
    assert max(abs(u) for u in kernel_vector(pseq, n + 200)[n + 1 :]) < 1e-8


@pytest.mark.parametrize(
    "pseq",
    [
        # some |r_k| exceed 1, yet both parity chains shrink per cycle
        Periodic((0.45, 0.56, 0.56)),
        Periodic((0.48, 0.6, 0.6)),
        # the growing chain starts from an exact zero, the other one shrinks
        Periodic((0.6852, 0.3205)),
    ],
)
def test_right_inverse_judges_decay_per_chain(pseq):
    op = walk(pseq)
    v = FinSeq.unit(0)
    u = right_inverse(op, v)
    assert (op.apply(u) - v).sup_abs() < 1e-10
