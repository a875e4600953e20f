"""Independent references for the benchmark's correctness checks.

Nothing here imports walkdyn.  Every expected answer is recomputed from a
job's raw parameters with numpy or closed forms, so a check cannot share a
defect with the code it checks.

A probability sequence is a dict ``{"form": "const"|"list"|"periodic",
"values": [...], "tail": float|None}``; a vector is ``(offset, values)``.
"""

from __future__ import annotations

import math

import numpy as np

# Floating-point agreement demanded of the banded power references: a block
# of size j+n+2 holds W^n e_j exactly, so only rounding separates the two.
REL_TOL = 1e-12


def probs(ps: dict, idx: np.ndarray) -> np.ndarray:
    """p_i for each (integer) index in idx."""
    vals = np.asarray(ps["values"], dtype=float)
    if ps["form"] == "const":
        return np.full(idx.shape, vals[0])
    if ps["form"] == "periodic":
        return vals[np.mod(idx, len(vals))]
    out = np.full(idx.shape, float(ps["tail"]))
    inside = (idx >= 0) & (idx < len(vals))
    out[inside] = vals[idx[inside]]
    return out


def distinct_probs(ps: dict) -> list[float]:
    extra = [ps["tail"]] if ps["form"] == "list" else []
    return list(ps["values"]) + extra


# -- banded powers --------------------------------------------------------


class Banded:
    """W acting on a fixed index block [lo, lo + size) by numpy slicing.

    The block must contain the support of every iterate plus one index on
    each side; callers size it from the support and the step count.
    """

    def __init__(self, ps: dict, half_line: bool, lo: int, size: int):
        self.half_line = half_line
        self.lo = lo
        idx = np.arange(lo, lo + size)
        self.p = probs(ps, idx)
        self.q = 1.0 - self.p

    def step(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        y[1:-1] = self.q[1:-1] * x[:-2] + self.p[1:-1] * x[2:]
        if self.half_line:
            y[0] = self.q[0] * x[0] + self.p[0] * x[1]
        return y

    def embed(self, vec) -> np.ndarray:
        offset, values = vec
        x = np.zeros(len(self.p), dtype=complex)
        x[offset - self.lo : offset - self.lo + len(values)] = values
        return x


def block_for(vec, n: int, half_line: bool, extra=()) -> tuple[int, int]:
    """(lo, size) of a block that holds n steps from vec and any extra vectors."""
    lo = min([vec[0]] + [v[0] for v in extra])
    hi = max([vec[0] + len(vec[1])] + [v[0] + len(v[1]) for v in extra])
    lo = 0 if half_line else lo - n - 1
    return lo, hi + n + 2 - lo


def norm(x: np.ndarray, space: str) -> float:
    a = np.abs(x)
    if space in ("c0", "c", "linf"):
        return float(a.max(initial=0.0))
    q = float(space[1:])
    scale = float(a.max(initial=0.0))
    if scale == 0.0:
        return 0.0
    return scale * float(np.sum((a / scale) ** q)) ** (1.0 / q)


def close(got: float, ref: float, scale: float) -> bool:
    return abs(got - ref) <= REL_TOL * scale + 1e-300


def power_apply(ps, half_line, vec, n):
    """(lo, W^n x, W^n |x|) on a block holding every iterate."""
    lo, size = block_for(vec, n, half_line)
    w = Banded(ps, half_line, lo, size)
    x = w.embed(vec)
    a = np.abs(x)
    for _ in range(n):
        x = w.step(x)
        a = w.step(a)
    return lo, x, a


def orbit(ps, half_line, vec, n, extra=()):
    """Yield (block lo, W^k x, W^k |x|) for k = 0..n on one block."""
    lo, size = block_for(vec, n, half_line, extra)
    w = Banded(ps, half_line, lo, size)
    x = w.embed(vec)
    a = np.abs(x)
    for k in range(n + 1):
        yield w, x, a
        if k < n:
            x = w.step(x)
            a = w.step(a)


# -- closed-form verdicts -------------------------------------------------


def _lg(p: float) -> float:
    return math.log1p(-p) - math.log(p)


def recurrence_class(ps: dict) -> str:
    """Birth-death criterion: only the eventual probabilities matter.

    Constant and list forms compare the (tail) probability with 1/2;
    periodic forms use the per-period product of (1-p)/p.
    """
    if ps["form"] == "periodic":
        s = math.fsum(_lg(p) for p in ps["values"])
        if abs(s) <= 1e-12 * len(ps["values"]):
            return "NullRecurrent"
        return "Transient" if s < 0 else "PositiveRecurrent"
    p = ps["tail"] if ps["form"] == "list" else ps["values"][0]
    if p == 0.5:
        return "NullRecurrent"
    return "Transient" if p > 0.5 else "PositiveRecurrent"


def chain_log_factors(ps: dict) -> tuple[float, float]:
    """Log growth of the even and odd zero-eigenvector chains.

    The chain through coordinate n steps to n+2 by the factor
    (1-p_{n+1})/p_{n+1}.  Past any list prefix, the log factors are summed
    per parity of n over four periods of p; only the sign is used.
    """
    cycle = len(ps["values"]) if ps["form"] == "periodic" else 1
    start = len(ps["values"]) + 2 if ps["form"] == "list" else 0
    n = np.arange(start, start + 4 * cycle)
    lg = np.log1p(-probs(ps, n + 1)) - np.log(probs(ps, n + 1))
    return float(np.sum(lg[n % 2 == 0])), float(np.sum(lg[n % 2 == 1]))


def step_bound(ps: dict) -> float:
    """Certified per-step norm bound of the right inverse (inf if none).

    Constant p: 1/(2p-1).  Otherwise 1/(min p * (1 - max |(p-1)/p|)).
    """
    if ps["form"] == "const":
        p = ps["values"][0]
        return 1.0 / (2.0 * p - 1.0) if p > 0.5 else math.inf
    vals = distinct_probs(ps)
    rbar = max(abs((p - 1.0) / p) for p in vals)
    if rbar >= 1.0:
        return math.inf
    return 1.0 / (min(vals) * (1.0 - rbar))


def column_bound(ps: dict) -> float:
    """Exact sup over columns of the half-line column sums.

    Column j sums p_{j-1} + (1-p_{j+1}), plus (1-p_0) for j = 0; the list
    window plus a stretch of tail, or two full periods, covers every value.
    """
    span = len(ps["values"]) + 4
    if ps["form"] == "periodic":
        span = 2 * len(ps["values"]) + 4
    j = np.arange(span)
    p_prev = np.where(j >= 1, probs(ps, j - 1), 0.0)
    sums = p_prev + 1.0 - probs(ps, j + 1)
    sums[0] += 1.0 - probs(ps, np.array([0]))[0]
    return float(sums.max())


def certify_expectation(kind: str, ps: dict, lam: complex | None, space: str):
    """Expected verdict ('yes', 'no', 'undetermined') of a certificate."""
    if space == "c":
        return "undetermined"
    if kind == "supercyclicity":
        even, odd = chain_log_factors(ps)
        return "yes" if even < -1e-12 and odd < -1e-12 else "undetermined"
    bound = step_bound(ps)
    if not math.isfinite(bound):
        return "undetermined"
    return "yes" if bound / abs(lam) < 1.0 else "no"


def disproof_valid(ps: dict, lam: complex, space: str) -> bool:
    """A 'no' may claim a disproof only if every orbit is norm-bounded."""
    return abs(lam) <= 1.0 and (space == "c0" or column_bound(ps) <= 1.0 + 1e-12)


def max_root_moduli(p: float, lams) -> np.ndarray:
    """Largest |theta| with p theta^2 - lam theta + (1-p) = 0, per lam.

    Roots are the eigenvalues of the companion matrix, which is how
    numpy.roots computes them; batching keeps 2000-point grids cheap.
    """
    lams = np.asarray(lams, dtype=complex)
    comp = np.zeros((len(lams), 2, 2), dtype=complex)
    comp[:, 0, 0] = lams / p
    comp[:, 0, 1] = -(1.0 - p) / p
    comp[:, 1, 0] = 1.0
    return np.max(np.abs(np.linalg.eigvals(comp)), axis=1)


def dual_chain_log_factors(ps: dict) -> tuple[float, float]:
    """Log growth of the left zero-eigenvector parity chains.

    The chain steps from n to n+2 by the factor p_n/(1-p_{n+2}).  Past any
    list prefix, the log factors are summed per parity of n over four
    periods of p; only the sign is used.
    """
    cycle = len(ps["values"]) if ps["form"] == "periodic" else 1
    start = len(ps["values"]) + 2 if ps["form"] == "list" else 0
    n = np.arange(start, start + 4 * cycle)
    lg = np.log(probs(ps, n)) - np.log1p(-probs(ps, n + 2))
    return float(np.sum(lg[n % 2 == 0])), float(np.sum(lg[n % 2 == 1]))


def dual_member(ps: dict, space: str) -> str:
    even, odd = dual_chain_log_factors(ps)
    if space == "l1":
        return "yes" if even <= 1e-12 and odd <= 1e-12 else "no"
    return "yes" if even < -1e-12 and odd < -1e-12 else "no"


def left_kernel(ps: dict, n_max: int) -> np.ndarray:
    """u with u A = 0, u_0 = 1, by the two-term recurrence."""
    p = probs(ps, np.arange(n_max + 3))
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    if n_max >= 1:
        u[1] = -(1.0 - p[0]) / (1.0 - p[1])
    for n in range(2, n_max + 1):
        u[n] = -(p[n - 2] / (1.0 - p[n])) * u[n - 2]
    return u
