"""Right inverse and kernel structure of the half-line walk operator.

The half-line operator W is onto whenever all jump probabilities sit in
(0, 1): given v, the sequence u with u_0 = 0,

    u_1 = v_0 / p_0,      u_n = v_{n-1} / p_{n-1} + r_{n-1} u_{n-2},

where r_k = (p_k - 1)/p_k, satisfies W u = v row by row.  Beyond the
support of v the recurrence continues geometrically with factors r_k, and
each parity chain of the result decays iff the product of |r_k| over one
cycle of the indices it reads is below 1 (tail jump probabilities above
one half are enough, but not needed).  For constant p the map v -> u is exactly
convolution with the kernel a_{2j+1} = r^j / p, giving the operator norm
1/(2p - 1) on each of c0, l^q, l^infinity.

Evaluation: each u_n rounds on u_{n-2}, so the recurrence is not
reassociated into array operations.  Every entry takes the floating-point
operations of Python ``complex`` arithmetic in the same order, so the
result is bit-identical to the plain loop over indices, which the tests
keep as the reference.  CPython divides a complex by a float through
p + 0j, giving ((re + im*0.0)/p, (im - re*0.0)/p).  Past the support v
vanishes, and the same loop continues with 0 + r_{n-1} u_{n-2} up to the
cap.

Backward orbits run in one loop, :func:`_backward` (v, Sv/lam, ...,
S^k v/lam^k; ``right_inverse`` is one step).  It reads p and r once per
run, into arrays that double on demand, so a tail reads them only about
as far as it goes.  It folds the trim and the 1/lam scaling into each
step.  A start runs on the float plane by the rule of the forward loop
(``seqspace._float_plane``: every entry finite, every imaginary part +0).
There (v_{n-1} + 0.0)/p_{n-1} + r_{n-1} u_{n-2}, and 0.0 + r_{n-1} u_{n-2}
past v, are the real parts of the complex entries, whose imaginary parts
stay +0; a step that overflows there is redone in ``complex``, where
0.0 * inf makes nan parts.  A real scaling stays on the plane:
x * c.real - c.imag * 0.0 is the real part of ``_cmul(c, x)``, c = 1/lam,
and for lam > 0 that is every bit.  For lam < 0, c.imag is -0 and the
paths differ at most in the signs of zeros: nonzero entries keep their
bits, and every norm, trim and stop test reads through ``hypot``, ``abs``
or ``== 0``; so the contract is exact bits for lam > 0, and moduli only
for lam < 0.  Other starts, and complex lam, run on ``complex``.

Kernel bases: W^n kills an n-dimensional space of decaying sequences when
the kernel weights decay.  ker W is spanned by the closed-form kernel
vector u_0 (:func:`kernel_vector`), and W S = I, so ker W^n is spanned by
S^k u_0, k < n.  Each basis vector is the combination of these pinned to
a coordinate vector on the first n coordinates; the leading minor is
lower triangular and solved in Python ``complex``, and the combination is
summed through ``_cmul`` in a fixed order, so its bits do not depend on
the BLAS or SIMD path.
"""

from __future__ import annotations

import math

import numpy as np

from .classify import _chain_factors, _log_odds, kernel_decay_log_factors
from .operators import BandedOp, PSeq, _running_products
from .seqspace import FinSeq, Lattice, _abs, _cmul, _float_plane

_TAIL_CAP = 2_000_000  # indices past the support a preimage tail may need


class TailNotDecayingError(RuntimeError):
    """The inverted sequence's geometric tail does not fall below tolerance.

    Raised when a parity chain of the continuation that is not exactly
    zero does not shrink over a cycle of the jump probabilities, so the
    preimage leaves every one of the sequence spaces, and when the chains
    decay but would stay above tolerance more than ``_TAIL_CAP`` indices
    past the support.  ``last_magnitude`` reports how large the tail still
    was when the computation stopped (at the support edge, for the cap).
    """

    def __init__(self, message: str, last_magnitude: float):
        super().__init__(message)
        self.last_magnitude = last_magnitude


def jump_ratio(p: float) -> float:
    """Continuation factor (p - 1)/p of the inversion recurrence."""
    return (p - 1.0) / p


def _require_half_line(op: BandedOp) -> None:
    if op.lattice is not Lattice.HALF_LINE:
        raise ValueError("the right-inverse construction applies to half-line operators")


def ratio_bound(op: BandedOp) -> float:
    """sup |r_k| over every probability value the sequence takes."""
    return max(abs(jump_ratio(p)) for p in op.pseq.probabilities())


def step_norm_bound(op: BandedOp) -> float:
    """Proven per-application norm bound for the right inverse.

    For constant p > 1/2 this is exactly 1/(2p - 1).  In general the
    inversion coefficients are dominated by the l1 kernel with ratio
    sup |r_k| and prefactor 1/min p_k, giving 1/(min p_k * (1 - sup |r_k|));
    the constant case reduces to the same number.  Returns +inf when some
    |r_k| >= 1, where no such bound exists.
    """
    rbar = ratio_bound(op)
    if rbar >= 1.0:
        return math.inf
    values = op.pseq.probabilities()
    if len(values) == 1:
        return 1.0 / (2.0 * values[0] - 1.0)
    return 1.0 / (min(values) * (1.0 - rbar))


def _chain_horizon(
    pseq: PSeq, first: int, mags: tuple[float, float], threshold: float
) -> float:
    """Index past which both parity chains stay at or below ``threshold``.

    The chains are x_{n+2} = |r_{n+1}| x_n for n >= first, started from
    (|x_first|, |x_{first+1}|) = ``mags``: the kernel weights, and the tail
    of a preimage past the support of its target.  Their logs are followed
    through the prefix and one cycle past it; from there each chain scales
    by its per-cycle factor from :func:`kernel_decay_log_factors`, so its
    last index above the threshold follows in closed form.  One more cycle
    is added to absorb the rounding difference between the logs and the
    products.  Returns inf when the threshold is not positive or the log
    factor of a chain that is not exactly zero is not negative; a factor
    just below 1 gives a horizon as far off as it is, for the caller's cap.
    """
    if threshold <= 0:
        return math.inf
    cycle_len = len(pseq.cycle)
    span = cycle_len if cycle_len % 2 == 0 else 2 * cycle_len  # indices per chain cycle
    factors = kernel_decay_log_factors(pseq)
    steady = max(first, pseq.start + len(pseq.prefix))
    log_thr = math.log(threshold)
    logs = [math.log(m) if m > 0 else -math.inf for m in mags]
    last = first - 1
    for n in range(first, steady + span):
        if n >= first + 2:
            logs.append(logs[n - first - 2] + _log_odds(pseq.at(n - 1)))
        lg = logs[n - first]
        if n < steady:
            if lg > log_thr:
                last = n
        elif lg > -math.inf:
            f = factors[n % 2]
            if f >= 0:
                return math.inf
            if lg > log_thr:
                last = max(last, n + span * math.floor((lg - log_thr) / -f))
    return last + span


def _backward(
    op: BandedOp, v: FinSeq, k: int, lam: complex | None = None, tol=1e-13, max_support=None
):
    """Yield (offset, values) for v, Sv/lam, ..., S^k v/lam^k (S^j v without lam):
    the windows ``right_inverse`` then ``* (1/lam)`` leave; their real parts
    when v is on the float plane, by ``BandedOp._orbit``'s rule (module
    docstring).  Raises as ``right_inverse`` does."""
    _require_half_line(op)
    if v.lattice is not Lattice.HALF_LINE:
        raise ValueError("the vector must live on the half-line")
    pseq = op.pseq
    c = None if lam is None else complex(1.0 / lam)
    p, rl = np.empty(0), []  # p_n and r_n, read once per run, doubled on demand

    def read(n: int) -> None:
        """Make p and rl reach index n - 1."""
        nonlocal p, rl
        if len(rl) < n:
            p = pseq.prob_array(np.arange(max(2 * len(rl), n)))
            rl = jump_ratio(p).tolist()

    @np.errstate(over="ignore", invalid="ignore")  # silent like Python complex arithmetic
    def step(lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """S x from index lo on, for x on lo..hi (nonzero at both ends), on
        the plane of x; None when the float plane overflows."""
        read(hi + 2)  # the tail reads r_hi+1 at least
        flat = x.dtype == np.float64
        a = np.empty(len(x), x.dtype)  # CPython divides a complex by a float through p + 0j
        a.real = (x.real + x.imag * 0.0) / p[lo : hi + 1]
        if not flat:
            a.imag = (x.imag - x.real * 0.0) / p[lo : hi + 1]
        u = [0.0 if flat else 0j]  # u_lo, zero like every entry below it
        x0 = x1 = u[0]
        for an, rn in zip(a.tolist(), rl[lo : hi + 1]):
            x0, x1 = x1, an + rn * x0
            u.append(x1)
        if flat and not math.isfinite(x0 + x1):  # a chain stays non-finite
            return None
        threshold = tol * float(_abs(x).max())
        if max_support is not None:
            cap = max(max_support, hi + 2)
        else:
            # past hi + 1 the preimage follows the parity chains from u_hi, u_hi+1
            horizon = _chain_horizon(pseq, hi, (abs(x0), abs(x1)), threshold)
            if math.isfinite(horizon) and horizon > hi + _TAIL_CAP:
                raise TailNotDecayingError(
                    "preimage tail decays too slowly: it stays above tolerance until "
                    f"about index {horizon}, more than the cap of {_TAIL_CAP} indices "
                    "past the support",
                    max(abs(x0), abs(x1)),
                )
            cap = hi + 128 if math.isinf(horizon) else max(horizon, hi) + 2
        for n in range(hi + 1, cap):  # past v, u_{n+1} = 0 + r_n u_{n-1} up to u_cap
            if n == len(rl):  # read r by doubling, only as far as the tail goes
                read(n + 1)
            u.append(u[0] + rl[n] * u[-2])
            if abs(u[-1]) <= threshold and abs(u[-2]) <= threshold:
                break
        else:
            if flat and not math.isfinite(u[-1] + u[-2]):
                return None
            if max_support is None:
                last = max(abs(u[-1]), abs(u[-2]))
                raise TailNotDecayingError(
                    "preimage tail has not decayed below tolerance: the jump "
                    f"probabilities do not eventually exceed one half (|tail| ~ {last:.3e})",
                    last,
                )
        return np.array(u, x.dtype)

    yield v.offset, v.values
    lo, hi = v.support() or (0, -1)
    x = v.window(lo, hi + 1)
    if _float_plane(x):
        x = x.real
    for _ in range(k):
        if lo <= hi:
            u = step(lo, hi, x)
            if u is None:  # redo the step in complex (step calls no step: no reference cycle)
                u = step(lo, hi, x.astype(np.complex128))
            nz = np.flatnonzero(u)
            first, last = (int(nz[0]), int(nz[-1])) if len(nz) else (0, -1)
            lo, hi, x = lo + first, lo + last, u[first : last + 1]
            if c is not None:  # the float plane keeps the real part of _cmul(c, x + 0j)
                flat = x.dtype == np.float64 and not c.imag
                x = x * c.real - c.imag * 0.0 if flat else _cmul(c, x)
        yield (lo if lo <= hi else 0), x


def right_inverse(
    op: BandedOp,
    v: FinSeq,
    tol: float = 1e-13,
    max_support: int | None = None,
) -> FinSeq:
    """Preimage u with W u = v, u_0 = 0, truncated once the tail decays.

    The recurrence runs until both parity chains of the geometric
    continuation fall below ``tol * sup|v|`` past the support of v.  When a
    chain that is not exactly zero cannot decay (it does not shrink over a
    cycle of the jump probabilities) and no ``max_support`` is supplied, it
    runs 128 indices past the support and raises
    :class:`TailNotDecayingError`; it also raises, before the continuation,
    when the closed-form horizon of the chains lies more than ``_TAIL_CAP``
    indices past the support.  With ``max_support`` it stops at index
    max(max_support, hi + 2), hi the last index of the support of v, and
    returns the truncated sequence, decayed or not (at p = 0.75, ones on
    0..10 with ``max_support=5`` give support 1..12).  The result has the
    bits of the plain loop (see the module docstring).
    """
    *_, (lo, values) = _backward(op, v, 1, tol=tol, max_support=max_support)
    return FinSeq(Lattice.HALF_LINE, lo, values)


def right_inverse_power(
    op: BandedOp,
    v: FinSeq,
    n: int,
    tol: float = 1e-13,
    max_support: int | None = None,
) -> FinSeq:
    """n-fold right inverse, bit for bit n calls of :func:`right_inverse`,
    in one loop.  Coordinates 0..n-1 of the result are exact zeros, and
    each application multiplies the norm by at most the step bound, so the
    sup norm grows no faster than step_norm_bound(op)**n."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    for lo, values in _backward(op, v, n, tol=tol, max_support=max_support):
        pass  # each step replaces the last; only S^n v is kept
    return FinSeq(Lattice.HALF_LINE, lo, values)


def kernel_window_for_tol(pseq: PSeq, tol: float, cap: int = 12000) -> int:
    """Index horizon past which the kernel weights stay below tol.

    The weights are the moduli of the kernel vector (:func:`kernel_vector`).
    Returns the first index n such that the 2L + 2 weights ending at n
    (L the cycle length of the probability sequence) and every later
    weight lie below tol.  The weights are computed only up to the
    closed-form chain horizon.  Raises ValueError when the chains do not
    decay (the horizon would be infinite) and when the window would pass
    ``cap``.
    """
    horizon = _chain_horizon(pseq, 0, tuple(map(abs, kernel_vector(pseq, 1))), tol)
    if math.isinf(horizon):
        raise ValueError(
            "kernel weights do not decay (some parity chain has per-cycle "
            "growth factor >= 1), so no finite window reaches the tolerance"
        )
    if horizon <= cap:
        u = kernel_vector(pseq, horizon)
        last = max((n for n, un in enumerate(u) if abs(un) >= tol), default=-1)
        window = last + 2 * len(pseq.cycle) + 2
        if window <= cap:
            return window
    raise ValueError(
        f"no kernel window up to cap={cap} reaches tol={tol:g}: the kernel "
        f"weights stay above it until about index {horizon}"
    )


def kernel_vector(pseq: PSeq, n_max: int) -> list[float]:
    """Zero-eigenvector coordinates of the half-line walk, u_0 = 1.

    Row n-1 of the operator forces u_n = ((p_{n-1} - 1)/p_{n-1}) u_{n-2}
    (and u_1 = ((p_0 - 1)/p_0) u_0 from the boundary row), so the
    truncated vector satisfies the eigen-equation exactly except at the
    truncation frontier.  |u_n| is the kernel weight w_n, the product of
    (1-p_j)/p_j over the j < n of the other parity.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return _running_products(jump_ratio(pseq.prob_array(np.arange(n_max))), 2).tolist()


def kernel_basis(
    op: BandedOp, n: int, window: int, tol: float = 1e-12, *, count: int | None = None
) -> list[FinSeq]:
    """Basis of the kernel of W^n for a half-line walk with decaying weights.

    Returns the first ``count`` (default all n) basis vectors.  Vector i is
    e_i on coordinates 0..n-1 (an identity leading minor), the combination
    of S^k u_0, k < n, that meets it; the minor is lower triangular, with
    diagonal 1/(p_0 ... p_{k-1}).  The vectors are computed on the window
    [0, window + n) and cut there, so the window should reach past where
    they fall below ``tol`` (``kernel_window_for_tol(pseq, tol) + n`` does).
    Within it each entry is exact up to rounding: entry j of a preimage
    reads only entries below j, so each S^k u_0 is taken from an input cut
    at the window.  Trailing entries below ``tol`` are dropped; they shrink
    like the kernel weights (for constant p, sqrt((1-p)/p) per index).
    """
    _require_half_line(op)
    if max(_chain_factors(op.pseq)) >= 1:
        raise ValueError(
            "the kernel is trivial in the space (weights do not decay; for "
            "constant p that means p <= 1/2), so no basis exists"
        )
    if n < 1:
        raise ValueError("the power must be at least 1")
    if window < 1:
        raise ValueError("window must be positive")
    if count is not None and not 1 <= count <= n:
        raise ValueError(f"count must lie between 1 and the power {n}, got {count}")
    size = window + n
    powers = np.zeros((n, size), np.complex128)  # row k: S^k u_0 on [0, size)
    powers[0] = kernel_vector(op.pseq, size - 1)
    for k in range(1, n):
        s = right_inverse(op, FinSeq(Lattice.HALF_LINE, 0, powers[k - 1]), tol, size - 1)
        powers[k, s.offset : s.offset + len(s.values)] = s.values[: size - s.offset]
    minor = powers[:, :n].T.tolist()  # minor[j][k] = (S^k u_0)_j, zero for k > j
    basis = []
    for i in range(count or n):
        # coefficients c_i .. c_{n-1} with minor @ c = e_i, by forward substitution
        c: list[complex] = []
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
        # drop the tail once it is below tolerance for good
        big = np.flatnonzero(~(_abs(v) < tol))
        last = min(int(big[-1]) + 1, size - 1) if len(big) else 0
        basis.append(FinSeq(Lattice.HALF_LINE, 0, v[: last + 1]))
    return basis

