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
keep as the reference; v/p is CPython's division of a complex by a float
(``seqspace._cdiv``).  Past the support v vanishes, and the same loop
continues with 0 + r_{n-1} u_{n-2} up to the cap.  The tail's threshold is
tol * sup|v|, at least the smallest positive float when v is not zero, so
a tail that decays reaches it.  Without ``max_support`` the loop reads v
without its longest trailing run whose moduli sum to at most the
threshold, so W u = v up to that run, dropped like the tail: at most
tol * sup|v| <= tol * ||v|| of l1 mass, in every supported norm.

Backward orbits run in one loop, :func:`_backward` (v, Sv/lam, ...,
S^k v/lam^k; ``right_inverse`` is one step).  It reads p and r once per
run, into arrays that double on demand, so a tail reads them only about
as far as it goes.  It folds the trim, the 1/lam scaling and, without
``max_support``, the cut of the trailing run into each step, so a window
keeps only the mass that can reach the tolerance and a long run's windows
grow sublinearly.  A start runs on the float plane by the rule of the
forward loop (``seqspace._float_plane``: every entry finite, every
imaginary part +0); there every entry is the real part of the complex
one, whose imaginary part stays +0.  One rule holds on both planes: a
step whose entries pass the float range from finite entries raises
OverflowError at that step, in the support and in a tail alike.  Without
``max_support`` a tail whose chains do not decay raises
TailNotDecayingError at its cap, inf or not; one that decays runs at
most to the closed-form horizon of its chains, which ends a subnormal
tail that rounding holds a few ulps above the threshold.  A real scaling c = 1/lam stays on the
plane (``seqspace._scaled``), every bit of ``_cmul(c, x)`` for lam > 0.  For lam < 0, c.imag is -0 and the paths
differ at most in the signs of zeros: nonzero entries keep their bits,
and every norm, trim and stop test reads through ``hypot``, ``abs`` or
``== 0``; so the contract is exact bits for lam > 0, and moduli only for
lam < 0.  Other starts, and complex lam, run on ``complex``.

Kernel bases: W^n kills an n-dimensional space of decaying sequences when
the kernel weights decay.  ker W is spanned by the closed-form kernel
vector u_0 (:func:`kernel_vector`), and W S = I, so ker W^n is spanned by
S^k u_0, k < n: one run of the backward loop, on the float plane, since
every p is real.  Each basis vector is the combination of these pinned to
a coordinate vector on the first n coordinates; the leading minor is
lower triangular and solved over Python floats, and the combination is
summed a row at a time in a fixed order, so its bits do not depend on the
BLAS or SIMD path.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .classify import _chain_factors, _log_odds, kernel_decay_log_factors
from .operators import BandedOp, PSeq, _running_products
from .seqspace import FinSeq, Lattice, _abs, _cdiv, _float_plane, _scaled

_TAIL_CAP = 2_000_000  # indices past the support a preimage tail may need
_TINY = math.ulp(0.0)  # the smallest positive float, the least tail threshold


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
    if not threshold > 0:  # nan too
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


def _kept(mags: np.ndarray, threshold: float) -> int:
    """How many entries of a window with moduli ``mags`` stay once its longest
    trailing run whose moduli sum to at most ``threshold`` is dropped; the
    first entry always stays.  The sums are compared exactly.  A float sum
    past the float range is inf, above the threshold (numpy warns unless
    the caller silences overflow, as the backward step does)."""
    tail = mags[:0:-1]  # the run's candidates, last entry first

    def over(j: int) -> bool:  # fsum rounds the exact difference once, keeping its sign
        return math.fsum([-threshold, *tail[:j].tolist()]) > 0

    k = int(np.add.accumulate(tail).searchsorted(threshold, "right"))  # right up to rounding
    while k and over(k):
        k -= 1
    while k < len(tail) and not over(k + 1):
        k += 1
    return len(mags) - k


def _backward(
    op: BandedOp, v: FinSeq, k: int, lam: complex | None = None, tol=1e-13, max_support=None
):
    """Yield (offset, values) for v, Sv/lam, ..., S^k v/lam^k (S^j v without lam):
    the windows ``right_inverse`` then ``* (1/lam)`` leave; their real parts
    when v is on the float plane, by ``BandedOp._orbit``'s rule (module
    docstring).  Each window is yielded whole; without ``max_support`` the
    next step reads it without its trailing run of moduli summing to at
    most the tail's threshold (:func:`_kept`), unless that is inf or nan.
    Raises as ``right_inverse`` does."""
    _require_half_line(op)
    if v.lattice is not Lattice.HALF_LINE:
        raise ValueError("the vector must live on the half-line")
    if max_support is not None and max_support < 0:
        raise ValueError(f"max_support must be nonnegative, got {max_support}")
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
        the plane of x; without ``max_support``, of x without its trailing run
        below tolerance."""
        mags = _abs(x)
        top = float(mags.max())
        threshold = max(tol * top, _TINY) if top > 0 else tol * top
        if max_support is None and 0 < threshold < math.inf:  # so every modulus is finite
            hi = lo + _kept(mags, threshold) - 1
            x = x[: hi - lo + 1]
        read(hi + 2)  # the tail reads r_hi+1 at least
        flat = x.dtype == np.float64
        a = _cdiv(x, p[lo : hi + 1])
        u = [0.0 if flat else 0j]  # u_lo, zero like every entry below it
        x0 = x1 = u[0]
        for an, rn in zip(a.tolist(), rl[lo : hi + 1]):
            x0, x1 = x1, an + rn * x0
            u.append(x1)
        # a chain overflowed: past an overflow it stays inf or nan, so its last entry tells
        if not all(map(cmath.isfinite, u[-2:])) and (flat or np.isfinite(x).all()):
            raise OverflowError("the preimage passes the float range (about 1.8e308)")
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
            if max_support is None and math.isinf(horizon):
                last = max(abs(u[-1]), abs(u[-2]))
                raise TailNotDecayingError(
                    "preimage tail has not decayed below tolerance: the jump "
                    f"probabilities do not eventually exceed one half (|tail| ~ {last:.3e})",
                    last,
                )
            if not all(map(cmath.isfinite, u[-2:])) and (flat or np.isfinite(x).all()):
                raise OverflowError("the preimage passes the float range (about 1.8e308)")
        return np.array(u, x.dtype)

    yield v.offset, v.values
    lo, hi = v.support() or (0, -1)
    x = v.window(lo, hi + 1)
    if _float_plane(x):
        x = x.real
    for _ in range(k):
        if lo <= hi:
            u = step(lo, hi, x)
            nz = np.flatnonzero(u)
            first, last = (int(nz[0]), int(nz[-1])) if len(nz) else (0, -1)
            lo, hi, x = lo + first, lo + last, u[first : last + 1]
            x = x if c is None else _scaled(c, x)
        yield (lo if lo <= hi else 0), x


def right_inverse(
    op: BandedOp,
    v: FinSeq,
    tol: float = 1e-13,
    max_support: int | None = None,
) -> FinSeq:
    """Preimage u with W u = v, u_0 = 0, truncated once the tail decays.

    Without ``max_support``, W u = v up to the longest trailing run of v
    whose moduli sum to at most ``tol * sup|v|``, which is dropped like the
    tail (the module docstring).  The recurrence runs until both parity
    chains of the geometric continuation fall below ``tol * sup|v|`` past
    the support of v.  When a chain that is not exactly zero cannot decay
    (it does not shrink over a cycle of the jump probabilities) and no
    ``max_support`` is supplied, it runs 128 indices past the support and
    raises :class:`TailNotDecayingError`; it also raises, before the
    continuation, when the closed-form horizon of the chains lies more than
    ``_TAIL_CAP`` indices past the support.  With ``max_support`` it reads
    v whole, stops at index max(max_support, hi + 2), hi the last index of
    the support of v, and returns the truncated sequence, decayed or not
    (at p = 0.75, ones on 0..10 with ``max_support=5`` give support
    1..12).  The result has the bits of the plain loop on what it reads of
    v (see the module docstring).  A preimage past the float range raises
    OverflowError, and a negative ``max_support`` ValueError.
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
    in one loop, each step dropping its input's trailing run below
    tolerance as a call does.  Coordinates 0..n-1 of the result are exact
    zeros, and each application multiplies the norm by at most the step
    bound, so the sup norm grows no faster than step_norm_bound(op)**n."""
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
        big = np.flatnonzero(np.abs(kernel_vector(pseq, horizon)) >= tol)
        window = (int(big[-1]) if len(big) else -1) + 2 * len(pseq.cycle) + 2
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
    reads only entries below j, so the rows S^k u_0 come from one backward
    run and are cut at the window afterwards, with the bits of rows cut
    before each step.  Trailing entries below ``tol`` are dropped; they
    shrink like the kernel weights (for constant p, sqrt((1-p)/p) per
    index).  A kernel vector past the float range raises OverflowError.
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
    powers = np.zeros((n, size))  # row k: S^k u_0 on [0, size)
    u0 = FinSeq(Lattice.HALF_LINE, 0, kernel_vector(op.pseq, size - 1))
    if not np.isfinite(u0.values).all():
        raise OverflowError("the kernel vector passes the float range (about 1.8e308)")
    for row, (lo, x) in zip(powers, _backward(op, u0, n - 1, tol=tol, max_support=size - 1)):
        row[lo : lo + len(x)] = x[: size - lo].real  # u_0 is stored complex, S^k u_0 real
    minor = powers[:, :n].T.tolist()  # minor[j][k] = (S^k u_0)_j, zero for k > j
    basis = []
    for i in range(count or n):
        # coefficients c_i .. c_{n-1} with minor @ c = e_i, by forward substitution
        c: list[float] = []
        for j in range(i, n):
            acc = 1.0 if j == i else 0.0
            for mk, ck in zip(minor[j][i:j], c):
                acc -= mk * ck
            c.append(acc / minor[j][j])
        v = np.zeros(size)
        for ck, row in zip(c, powers[i:]):
            v += ck * row
        v[:n] = 0.0
        v[i] = 1.0
        # drop the tail once it is below tolerance for good
        big = np.flatnonzero(~(np.abs(v) < tol))
        last = min(int(big[-1]) + 1, size - 1) if len(big) else 0
        basis.append(FinSeq(Lattice.HALF_LINE, 0, v[: last + 1]))
    return basis

