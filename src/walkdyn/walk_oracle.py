"""Monte Carlo oracle for the walks behind the banded operators.

The oracle simulates trajectories of the actual Markov chain and is kept
deliberately independent of the operator algebra, so the two can be used
to cross-check each other.

Sampling uses numpy's counter-based Philox generator keyed by the config
seed.  Uniform draws are consumed in step-major blocks: block j holds one
draw per trajectory for step j, and trajectory t always reads entry t of
each block.  A trajectory's randomness is therefore a fixed function of
(seed, trajectory index), independent of evaluation order, and all
accumulations are integer counts, so results are exactly reproducible.

Both estimators run one stepping loop, ``_walk``, whose memory is one
int64 position per trajectory (an offset from the lowest state the walk
can reach) updated in place, a (2n+1)-entry table of p read once over
those states, and fixed buffers: each step's block of draws is taken in
stream order, ``_CHUNK`` trajectories at a time, into them.  The bits are those of one whole block per
step: the stream does not depend on how a block is split into calls, the
table holds ``prob_array``'s values, and adding the outcome twice and
subtracting 1 is the integer step.  The counts are exact integers, and a
total below 2**53 over ``samples`` is the float mean of the per-trajectory
visit counts, so the return mass keeps its bits too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import PSeq, Constant, ListWithTail, Periodic
from .seqspace import Lattice


@dataclass(frozen=True)
class WalkConfig:
    """Simulation setup: which walk, how many trajectories, which seed."""

    lattice: Lattice
    pseq: PSeq
    seed: int
    samples: int

    def __post_init__(self):
        if not isinstance(self.pseq, (Constant, ListWithTail, Periodic)):
            raise TypeError(f"not a probability sequence: {self.pseq!r}")
        if self.samples < 1:
            raise ValueError("need at least one trajectory")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


def _check_state(cfg: WalkConfig, i: int) -> None:
    if cfg.lattice is Lattice.HALF_LINE and i < 0:
        raise ValueError("half-line states are nonnegative")


def _generator(cfg: WalkConfig) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=cfg.seed))


_CHUNK = 8192  # trajectories per slice of a step's block of draws


def _walk(cfg: WalkConfig, n: int, i: int, j: int, every_step: bool = False) -> int:
    """Walk cfg.samples trajectories n steps from i and count those at j:
    after step n, or summed over steps 1..n with ``every_step``."""
    half_line = cfg.lattice is Lattice.HALF_LINE
    base = max(i - n, 0) if half_line else i - n
    table = cfg.pseq.prob_array(np.arange(base, i + n + 1))
    rng = _generator(cfg)
    pos = np.full(cfg.samples, i - base, dtype=np.int64)
    draw, prob, up = np.empty(_CHUNK), np.empty(_CHUNK), np.empty(_CHUNK, dtype=bool)
    hits = 0
    for step in range(1, n + 1):
        for lo in range(0, cfg.samples, _CHUNK):
            x = pos[lo : lo + _CHUNK]
            u, pv, b = draw[: len(x)], prob[: len(x)], up[: len(x)]
            rng.random(out=u)
            np.take(table, x, out=pv, mode="clip")  # every offset is in range
            np.less(u, pv, out=b)
            x += b
            x += b
            x -= 1
            if half_line:
                # from 0 the failed jump is a hold, not a step to -1
                np.maximum(x, -base, out=x)
            if every_step or step == n:
                hits += int(np.count_nonzero(np.equal(x, j - base, out=b)))
    return hits


def estimate_transition(cfg: WalkConfig, n: int, i: int, j: int) -> tuple[float, float]:
    """Monte Carlo estimate of the n-step transition probability i -> j.

    Returns (estimate, stderr) with the binomial standard error
    sqrt(phat (1 - phat) / samples); when every trajectory agrees the
    add-two adjusted error is reported instead of a degenerate zero.
    Deterministic for a fixed config.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    _check_state(cfg, i)
    _check_state(cfg, j)
    if n == 0:
        return (1.0 if i == j else 0.0), 0.0
    count = _walk(cfg, n, i, j)
    phat = count / cfg.samples
    if count == 0 or count == cfg.samples:
        # all-or-nothing runs still carry sampling noise; the plug-in
        # formula collapses to zero there, so report the add-two
        # adjusted error instead
        adj = (count + 2.0) / (cfg.samples + 4.0)
        stderr = math.sqrt(adj * (1.0 - adj) / (cfg.samples + 4.0))
    else:
        stderr = math.sqrt(phat * (1.0 - phat) / cfg.samples)
    return phat, stderr


def estimate_return_mass(cfg: WalkConfig, horizon: int, i: int) -> float:
    """Estimated expected number of visits to i during steps 1..horizon,
    starting from i.  This estimates the partial sum over n of the n-step
    return probabilities, whose divergence separates recurrence from
    transience."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    _check_state(cfg, i)
    return _walk(cfg, horizon, i, i, every_step=True) / cfg.samples
