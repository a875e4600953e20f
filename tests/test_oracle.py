import math
import random
import tracemalloc

import numpy as np
import pytest

from walkdyn.operators import Constant, ListWithTail, Periodic, make_walk
from walkdyn.seqspace import Lattice
from walkdyn.walk_oracle import _CHUNK, WalkConfig, estimate_return_mass, estimate_transition

from conftest import random_pseq


def cfg(pseq, seed=1, samples=40_000, lattice=Lattice.HALF_LINE):
    return WalkConfig(lattice=lattice, pseq=pseq, seed=seed, samples=samples)


def test_one_step_from_interior_is_exact_in_expectation():
    c = cfg(Constant(0.7), samples=200_000)
    est, err = estimate_transition(c, 1, 5, 6)
    assert est == pytest.approx(0.7, abs=5 * err)
    assert err == pytest.approx(math.sqrt(0.7 * 0.3 / 200_000), rel=0.2)


def test_boundary_holding_probability():
    c = cfg(Constant(0.3), samples=200_000)
    est, err = estimate_transition(c, 1, 0, 0)
    assert est == pytest.approx(0.7, abs=5 * err)


def test_zero_steps_is_identity():
    c = cfg(Constant(0.6), samples=100)
    assert estimate_transition(c, 0, 4, 4) == (1.0, 0.0)
    assert estimate_transition(c, 0, 4, 5) == (0.0, 0.0)


def test_seed_reproducibility():
    a = estimate_transition(cfg(Constant(0.65), seed=42), 7, 0, 3)
    b = estimate_transition(cfg(Constant(0.65), seed=42), 7, 0, 3)
    c = estimate_transition(cfg(Constant(0.65), seed=43), 7, 0, 3)
    assert a == b
    assert a != c


def test_matches_power_entry_at_four_stderr():
    rng = random.Random(2024)
    misses = 0
    for _ in range(25):
        pseq = random_pseq(rng, lo=0.2, hi=0.8)
        lattice = rng.choice(list(Lattice))
        op = make_walk(lattice, pseq)
        n = rng.randint(1, 10)
        i = rng.randint(0, 5) if lattice is Lattice.HALF_LINE else rng.randint(-3, 3)
        j = i + rng.randint(-n, n)
        if lattice is Lattice.HALF_LINE:
            j = max(0, j)
        truth = op.power_entry(n, i, j)
        est, err = estimate_transition(cfg(pseq, seed=rng.randrange(2**32), lattice=lattice), n, i, j)
        slack = 4 * max(err, 1e-4)
        if abs(est - truth) > slack:
            misses += 1
    assert misses <= 1


def test_return_mass_counts_visits():
    # positive recurrent walk: frequent returns; transient walk: few
    rec = estimate_return_mass(cfg(Constant(0.25), samples=4000), 60, 0)
    trans = estimate_return_mass(cfg(Constant(0.9), samples=4000), 60, 0)
    assert rec > 5.0
    assert trans < 2.0


def test_return_mass_matches_power_entries():
    pseq = Periodic((0.3, 0.45))
    op = make_walk(Lattice.HALF_LINE, pseq)
    horizon = 25
    truth = math.fsum(op.power_entry(n, 0, 0) for n in range(1, horizon + 1))
    est = estimate_return_mass(cfg(pseq, samples=120_000, seed=9), horizon, 0)
    assert est == pytest.approx(truth, rel=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(lattice=Lattice.HALF_LINE, pseq=Constant(0.5), seed=1, samples=0)
    c = cfg(Constant(0.5), samples=10)
    with pytest.raises(ValueError):
        estimate_transition(c, -1, 0, 0)
    with pytest.raises(ValueError):
        estimate_transition(c, 1, -2, 0)


def reference_positions(c, n, i):
    """The positions after each step, by the plain loop: a whole block of
    draws per step, p read at every position, np.where, the clamp at 0."""
    rng = np.random.Generator(np.random.Philox(key=c.seed))
    pos = np.full(c.samples, i, dtype=np.int64)
    for _ in range(n):
        pos = np.where(rng.random(c.samples) < c.pseq.prob_array(pos), pos + 1, pos - 1)
        if c.lattice is Lattice.HALF_LINE:
            np.maximum(pos, 0, out=pos)
        yield pos


def reference_transition(c, n, i, j):
    *_, pos = reference_positions(c, n, i)
    count = int(np.count_nonzero(pos == j))
    if count in (0, c.samples):
        adj = (count + 2.0) / (c.samples + 4.0)
        return count / c.samples, math.sqrt(adj * (1.0 - adj) / (c.samples + 4.0))
    phat = count / c.samples
    return phat, math.sqrt(phat * (1.0 - phat) / c.samples)


def reference_return_mass(c, n, i):
    visits = np.zeros(c.samples, dtype=np.int64)
    for pos in reference_positions(c, n, i):
        visits += pos == i
    return float(visits.mean())


# a list prefix on the line's negative states, cycles of odd and even length;
# on the half-line the clamp bites from i = 0 and is never reached from i = 40
ORACLE_CASES = [
    (lattice, pseq, i)
    for pseq in (ListWithTail((0.45, 0.8, 0.3), 0.6, start=-2), Periodic((0.6, 0.3, 0.7)),
                 Periodic((0.35, 0.75)))
    for lattice, i in ((Lattice.HALF_LINE, 0), (Lattice.HALF_LINE, 40), (Lattice.LINE, -3))
]


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("samples", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_estimates_keep_the_bits_of_the_plain_loop(samples, n):
    for seed, (lattice, pseq, i) in enumerate(ORACLE_CASES):
        c = cfg(pseq, seed=seed, samples=samples, lattice=lattice)
        # the mode's parity, the wrong parity, and the lowest reachable state
        lowest = i - n if lattice is Lattice.LINE else max(i - n, 0)
        for j in (i + n % 2, i + n + 1, lowest):
            assert estimate_transition(c, n, i, j) == reference_transition(c, n, i, j)
        assert estimate_return_mass(c, n, i) == reference_return_mass(c, n, i)


@pytest.mark.parametrize(
    "estimate, args, per_sample, slack",
    [(estimate_transition, (30, 0, 2), 8, 1.0), (estimate_return_mass, (30, 0), 17, 1.5)],
    ids=["transition", "return-mass"],
)
def test_walk_memory_is_one_int64_per_trajectory(estimate, args, per_sample, slack):
    c = cfg(Periodic((0.6, 0.3, 0.7)), samples=400_000, lattice=Lattice.LINE)
    tracemalloc.start()
    try:
        estimate(c, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_sample * c.samples + slack * 2**20
