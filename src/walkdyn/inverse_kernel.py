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
p + 0j, giving ((re + im*0.0)/p, (im - re*0.0)/p); these are formed on
arrays from one ``prob_array`` call, and the recurrence over the support
runs as a loop over Python numbers.  Past the support v vanishes and each
parity chain is a running product of the r_k, so long tails come from
``np.multiply.accumulate`` (:func:`_product_tail` says why the bits agree).

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

from .classify import _log_odds, kernel_decay_log_factors
from .operators import BandedOp, PSeq
from .seqspace import FinSeq, Lattice, SpaceSpec, _abs, _cmul, norm

_TAIL_CAP = 2_000_000  # indices past the support a preimage tail may need
_SCALAR_TAIL = 32  # tail entries taken one by one before the array set-up pays off


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
    products.  Returns inf when the threshold is not positive or a chain
    that is not exactly zero does not decay.
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
            if f >= -1e-12:
                return math.inf
            if lg > log_thr:
                last = max(last, n + span * math.floor((lg - log_thr) / -f))
    return last + span


def _scalar_tail(pseq: PSeq, u: list[complex], stop: int, threshold: float) -> bool:
    """Extend u past the support of the target up to index ``stop - 1``.

    Each entry is 0j + r_{n-1} * u_{n-2}, as the recurrence evaluates it
    with v_{n-1} = 0.  Returns True, and stops, at the first n where u_n
    and u_{n-1} are both within ``threshold``.
    """
    for n in range(len(u), stop):
        u.append(0j + jump_ratio(pseq.at(n - 1)) * u[n - 2])
        if abs(u[n]) <= threshold and abs(u[n - 1]) <= threshold:
            return True
    return False


def _product_tail(
    pseq: PSeq, u: list[complex], cap: int, threshold: float
) -> tuple[np.ndarray | None, bool]:
    """:func:`_scalar_tail` continued up to ``cap`` on arrays, same bits.

    From u_s, u_{s+1}, the last two entries of u, each part of each parity
    chain is a running product of the r_k.  CPython evaluates 0j + r * x
    as (0.0 + (r*re - 0.0*im), 0.0 + (r*im + 0.0*re)), which for finite
    parts is (r*re + 0.0, r*im + 0.0): the products with every zero given
    a plus sign.  Moduli come from ``np.hypot``, as ``abs`` takes them.
    Returns (u_0 .. u_n, True) for the first n that passes the stop test,
    else (u_0 .. u_cap, False).  Returns (None, False) when the moduli
    overflow: there CPython's 0.0 * inf makes nan parts and ``abs`` raises
    OverflowError, so the entries must be taken one by one.  A chain that
    overflows stays non-finite, so no stop test passes after it, and the
    last entry of each chain shows whether one did.
    """
    s = len(u) - 2
    # rows (re, im) of u_0 .. u_cap; past s + 1 they hold r_s+1 .. r_cap-1
    # (and a row of ones if the count is odd) before the products
    rows = np.empty((cap + 1 + (cap + 1 - s) % 2, 2))
    rows[: s + 2] = np.array(u, np.complex128).view(np.float64).reshape(-1, 2)
    rows[s + 2 : cap + 1] = jump_ratio(pseq.prob_array(np.arange(s + 1, cap)))[:, None]
    rows[cap + 1 :] = 1.0
    chains = rows[s:].reshape(-1, 2, 2)
    np.multiply.accumulate(chains, axis=0, out=chains)
    rows[s + 2 :] += 0.0
    mags = np.hypot(rows[s + 1 : cap + 1, 0], rows[s + 1 : cap + 1, 1])  # |u_s+1| ..
    small = mags <= threshold
    done = small[1:] & small[:-1]  # the stop test at n = s + 2 .. cap
    k = int(done.argmax())
    values = rows.view(np.complex128).ravel()
    if done[k]:
        return values[: s + 3 + k], True
    if np.isfinite(mags[-2:]).all():
        return values[: cap + 1], False
    return None, False


@np.errstate(over="ignore", invalid="ignore")  # silent like Python complex arithmetic
def right_inverse(
    op: BandedOp,
    v: FinSeq,
    tol: float = 1e-13,
    max_support: int | None = None,
) -> FinSeq:
    """Preimage u with W u = v, u_0 = 0, truncated once the tail decays.

    The recurrence is evaluated until both parity chains of the geometric
    continuation fall below ``tol * sup|v|`` past the support of v.  When
    a chain that is not exactly zero cannot decay (it does not shrink over
    a cycle of the jump probabilities) and no explicit ``max_support`` is
    supplied, the recurrence runs 128 indices past the support and then
    raises :class:`TailNotDecayingError`.  With ``max_support`` the
    recurrence stops at index max(max_support, hi + 2), hi the last index
    of the support of v, and the truncated sequence is returned as-is,
    decayed or not; so the result reaches past ``max_support`` when v does
    (at p = 0.75, ones on 0..10 with ``max_support=5`` give support
    1..12).  Without ``max_support`` it also
    raises, before the continuation, when the closed-form horizon of the
    chains lies more than ``_TAIL_CAP`` indices past the support.  The
    result has the bits of the plain loop (see the module docstring); past
    the support the first ``_SCALAR_TAIL`` entries are taken one by one.
    """
    _require_half_line(op)
    if v.lattice is not Lattice.HALF_LINE:
        raise ValueError("the vector must live on the half-line")
    vt = v.trim()
    sup = vt.support()
    if sup is None:
        return FinSeq.zero(Lattice.HALF_LINE)
    hi = sup[1]
    scale = vt.sup_abs()
    threshold = tol * scale

    pseq = op.pseq
    p = pseq.prob_array(np.arange(hi + 1))  # p_0 .. p_hi
    vs = np.zeros(hi + 1, np.complex128)
    vs[vt.offset :] = vt.values
    a = np.empty(hi + 1, np.complex128)
    a.real = (vs.real + vs.imag * 0.0) / p
    a.imag = (vs.imag - vs.real * 0.0) / p
    u = [0j]
    x0 = x1 = 0j
    for an, rn in zip(a.tolist(), jump_ratio(p).tolist()):
        x0, x1 = x1, an + rn * x0
        u.append(x1)
    if max_support is not None:
        cap = max(max_support, hi + 2)
    else:
        # past hi + 1 the preimage follows the parity chains from u_hi, u_hi+1
        horizon = _chain_horizon(pseq, hi, (abs(u[hi]), abs(u[hi + 1])), threshold)
        if math.isfinite(horizon) and horizon > hi + _TAIL_CAP:
            raise TailNotDecayingError(
                "preimage tail decays too slowly: it stays above tolerance until "
                f"about index {horizon}, more than the cap of {_TAIL_CAP} indices "
                "past the support",
                max(abs(u[hi]), abs(u[hi + 1])),
            )
        cap = hi + 128 if math.isinf(horizon) else max(horizon, hi) + 2
    # most tails stop within a few entries of the support: those entries
    # are taken one by one, and the rest, if any, as running products
    stopped = _scalar_tail(pseq, u, min(cap, hi + _SCALAR_TAIL) + 1, threshold)
    values = u
    if not stopped and len(u) <= cap:
        values, stopped = _product_tail(pseq, u, cap, threshold)
        if values is None:
            stopped = _scalar_tail(pseq, u, cap + 1, threshold)
            values = u
    if stopped or max_support is not None:
        return FinSeq(Lattice.HALF_LINE, 1, values[1:]).trim()  # u_0 = 0
    last = max(abs(complex(values[-1])), abs(complex(values[-2])))
    raise TailNotDecayingError(
        "preimage tail has not decayed below tolerance: the jump "
        f"probabilities do not eventually exceed one half (|tail| ~ {last:.3e})",
        last,
    )


def right_inverse_power(
    op: BandedOp,
    v: FinSeq,
    n: int,
    tol: float = 1e-13,
    max_support: int | None = None,
) -> FinSeq:
    """n-fold right inverse.  Coordinates 0..n-1 of the result are exact
    zeros, and each application multiplies the norm by at most the step
    bound, so the sup norm grows no faster than step_norm_bound(op)**n."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    cur = v
    for _ in range(n):
        cur = right_inverse(op, cur, tol=tol, max_support=max_support)
    return cur


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
    u = [1.0]
    for n, r in enumerate(jump_ratio(pseq.prob_array(np.arange(n_max))).tolist(), 1):
        u.append(r * u[max(n - 2, 0)])
    return u


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
    even, odd = kernel_decay_log_factors(op.pseq)
    if even >= -1e-12 or odd >= -1e-12:
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
        prev = FinSeq(Lattice.HALF_LINE, 0, powers[k - 1])
        s = right_inverse(op, prev, tol=tol, max_support=size - 1)
        top = min(s.offset + len(s.values), size)
        powers[k, s.offset : top] = s.values[: top - s.offset]
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


def kernel_span_approx(
    x: FinSeq,
    op: BandedOp,
    tolerance: float = 1e-10,
    space: SpaceSpec | None = None,
) -> tuple[FinSeq, float]:
    """Approximate x by a kernel vector of W^n, n = extent of x's support.

    Because basis vector i matches e_i on the first n coordinates, the
    combination sum_i x_i V_i agrees with x there exactly and the achieved
    error is the norm of the basis tails.  Returns (combination, error in
    the chosen space; sup norm by default).
    """
    _require_half_line(op)
    xt = x.trim()
    sup = xt.support()
    if sup is None:
        return FinSeq.zero(Lattice.HALF_LINE), 0.0
    if sup[0] < 0:
        raise ValueError("the vector must live on the half-line")
    n = sup[1] + 1
    kernel_tol = tolerance * 1e-3
    window = n + max(16, kernel_window_for_tol(op.pseq, max(kernel_tol, 1e-300)) + 8)
    basis = kernel_basis(op, n, window, tol=kernel_tol)
    combo = FinSeq.zero(Lattice.HALF_LINE)
    for i in range(n):
        c = xt.at(i)
        if c != 0:
            combo = combo + c * basis[i]
    err_space = space or SpaceSpec.c0()
    return combo, norm(xt - combo, err_space)
