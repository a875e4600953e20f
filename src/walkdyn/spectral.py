"""Point-spectrum probes for the half-line walk via its eigenvector recurrence.

For the constant-p half-line walk, any eigenvector candidate for the
eigenvalue lam is a scalar multiple of the sequence (q_n) fixed by

    q_0 = 1,  q_1 = (lam + p - 1)/p,
    (1-p) q_n - lam q_{n+1} + p q_{n+2} = 0.

The characteristic roots alpha, beta solve p z^2 - lam z + (1-p) = 0, so
alpha beta = (1-p)/p for every lam, and their moduli decide membership of
(q_n) in c0, l^q or l^infinity, away from the unit circle.

Zero-eigenvalue structure is available for position-dependent
probabilities as well: left (dual) kernel vectors with exact summability
and boundedness tests (the right kernel vector is
:func:`walkdyn.inverse_kernel.kernel_vector`; the per-cycle decay of its
moduli is :func:`walkdyn.classify.kernel_decay_log_factors`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict, _chain_factors, kernel_decay_log_factors
from .operators import Constant, PSeq, _check_prob, _running_products, make_walk
from .seqspace import FinSeq, Lattice, SpaceKind, SpaceSpec

_DEFECT_TOL = 1e-12  # |discriminant| at or below which the roots count as repeated


def eigen_sequence(p: float, lam: complex, n_max: int) -> list[complex]:
    """Eigenvector candidate (q_n), n = 0..n_max, normalized by q_0 = 1."""
    _check_prob(p)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    lam = complex(lam)
    q = [1.0 + 0.0j]
    if n_max >= 1:
        q.append((lam + p - 1.0) / p)
    for _ in range(2, n_max + 1):
        q.append((lam * q[-1] - (1.0 - p) * q[-2]) / p)
    return q


@dataclass(frozen=True)
class SpectrumVerdict:
    lam: complex
    space: SpaceSpec
    member: Verdict
    evidence: dict = field(default_factory=dict)


def point_spectrum_probe(
    p: float,
    lam: complex,
    space: SpaceSpec,
    band: float = 1e-8,
) -> SpectrumVerdict:
    """Decide whether the eigenvector candidate at lam lies in the space.

    The decision uses only the characteristic root moduli: strictly inside
    the unit circle means membership in every space here (geometric decay),
    strictly outside means no membership.  Within ``band`` of the unit
    circle the probe answers Undetermined, except for real lam with a
    conjugate root pair, where both moduli equal sqrt((1-p)/p) exactly;
    at p = 1/2 that pair sits on the unit circle and gives a bounded
    non-decaying candidate: member of l^infinity, not of c0, c or l^q.
    A repeated root exactly on the unit circle is decided from the
    linear-term coefficient of (e + f n) theta^n; repeated roots merely
    near the circle stay Undetermined.  A non-finite lam raises ValueError.
    """
    _check_prob(p)
    if not band >= 0:
        raise ValueError(f"band must be nonnegative, got {band}")
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError("lam must be finite")
    disc = lam * lam - 4.0 * p * (1.0 - p)
    s = cmath.sqrt(disc)
    # the roots of p z^2 - lam z + (1-p) = 0, largest modulus first
    a, b = (lam + s) / (2.0 * p), (lam - s) / (2.0 * p)
    alpha, beta = (a, b) if abs(a) >= abs(b) else (b, a)
    defective = abs(disc) <= _DEFECT_TOL
    conjugate_pair = (
        not defective and lam.imag == 0.0 and disc.imag == 0.0 and disc.real < 0.0
    )
    if defective:
        m = abs(lam / (2.0 * p))
    elif conjugate_pair:
        # conjugate roots: both moduli equal sqrt of the root product
        m = math.sqrt((1.0 - p) / p)
    else:
        m = abs(alpha)
    evidence = {
        "alpha": alpha,
        "beta": beta,
        "alpha_modulus": abs(alpha),
        "beta_modulus": abs(beta),
        "max_modulus": m,
        "discriminant": disc,
        "defective": defective,
        "conjugate_pair": conjugate_pair,
    }
    unit_pair = conjugate_pair and (1.0 - p) / p == 1.0
    evidence["unit_circle_pair"] = unit_pair
    defective_unit = defective and abs(m - 1.0) <= 1e-15

    if defective_unit:
        theta = lam / (2.0 * p)
        growth = (lam + p - 1.0) / p / theta - 1.0
        evidence["defective_growth_coef"] = growth
        if abs(growth) > 1e-12:
            member = Verdict.NO
        elif space.kind is SpaceKind.LINF:
            member = Verdict.YES
        elif space.kind is SpaceKind.C and theta == 1.0:
            member = Verdict.YES
        else:
            member = Verdict.NO
    elif unit_pair:
        member = Verdict.YES if space.kind is SpaceKind.LINF else Verdict.NO
    elif m < 1.0 - band:
        member = Verdict.YES
    elif m > 1.0 + band:
        member = Verdict.NO
    else:
        member = Verdict.UNDETERMINED
    return SpectrumVerdict(lam, space, member, evidence)


def certified_disk_radius(
    p: float,
    space: SpaceSpec,
    n_angles: int = 24,
    tol: float = 1e-6,
    band: float = 1e-8,
) -> float:
    """Largest grid-certified radius of a disk of certified eigenvalues.

    Binary search on r: every lam = r e^{i theta} on the angle grid must
    be certified a member.  This is a lower estimate only; the grid and
    the unit-circle band both bite.  Returns 0.0 when even lam = 0 fails.
    """
    _check_prob(p)
    if n_angles < 1:
        raise ValueError(f"n_angles must be at least 1, got {n_angles}")

    def ok(r: float) -> bool:
        for k in range(n_angles):
            th = 2.0 * math.pi * k / n_angles
            lam = complex(r * math.cos(th), r * math.sin(th))
            if point_spectrum_probe(p, lam, space, band=band).member is not Verdict.YES:
                return False
        return True

    if not ok(0.0):
        return 0.0
    lo, hi = 0.0, 2.0  # |lam| = 2 has a root of modulus >= 1/p > 1 (they sum to lam/p)
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:  # to tol or the float spacing
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def left_kernel_vector(pseq: PSeq, n_max: int) -> list[float]:
    """Left (dual) zero-eigenvector coordinates: u A = 0, u_0 = 1.

    The defining relations are (1-p_0) u_0 + (1-p_1) u_1 = 0 and
    p_n u_n + (1-p_{n+2}) u_{n+2} = 0, so the parity chains are running
    products of -p_n/(1-p_{n+2}).  The list ends before the first
    coordinate above 1e280 in modulus.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    k = min(n_max, 256)
    while True:  # p is read in windows that double up to n_max, so the cut ends the read
        p = pseq.prob_array(np.arange(k + 1))
        q = 1.0 - p
        u = _running_products(-(np.concatenate((q[:1], p))[:k] / q[1:]), 2)
        big = np.flatnonzero(np.abs(u) > 1e280)
        if big.size or k == n_max:
            return u[: big[0] if big.size else None].tolist()
        k = min(n_max, 2 * k)


@dataclass(frozen=True)
class DualSpectrumReport:
    space: SpaceSpec
    zero_is_dual_eigenvalue: Verdict
    conclusion: str | None
    coords: tuple[float, ...]
    detail: dict = field(default_factory=dict)


def dual_point_spectrum_report(
    pseq: PSeq, space: SpaceSpec, n_max: int = 60
) -> DualSpectrumReport:
    """Test whether the dual operator has the eigenvalue 0 on the dual space.

    Pairings: the dual of c0 (and of c) is l1, the dual of l^q (q > 1) is
    l^{q/(q-1)}, and the dual of l1 is l^infinity.  Membership of the left
    kernel vector is decided exactly from the parity-chain growth factors
    on the stated values (:func:`walkdyn.classify._chain_factors`).
    The dual chain ratio at n has magnitude p_n/(1-p_{n+2}), so per cycle
    the even dual chain reads the values the odd kernel chain reads, with
    the log negated, and vice versa.
    A YES verdict implies that no nonzero scalar multiple of the walk
    operator is hypercyclic on the space (a dual eigenvalue blocks dense
    orbits).
    """
    if space.kind is SpaceKind.LINF:
        raise ValueError("the dual of l^infinity is not a sequence space; no test here")
    kernel_even, kernel_odd = kernel_decay_log_factors(pseq)
    # 0.0 - x rather than -x keeps an exact zero unsigned in the report
    even, odd = 0.0 - kernel_odd, 0.0 - kernel_even
    # a dual chain grows by the reciprocal of a kernel chain's factor
    low = min(_chain_factors(pseq))
    if space.kind in (SpaceKind.C0, SpaceKind.C) or (
        space.kind is SpaceKind.LQ and space.q > 1.0
    ):
        # summability in l^s with s = 1 or s = q/(q-1): both chains must decay
        member, test = Verdict.YES if low > 1 else Verdict.NO, "summability"
    else:
        # l1 predual: boundedness in l^infinity
        member, test = Verdict.YES if low >= 1 else Verdict.NO, "boundedness"
    coords = tuple(left_kernel_vector(pseq, n_max))
    conclusion = None
    if member is Verdict.YES:
        conclusion = (
            f"0 is an eigenvalue of the dual operator on ({space})'; no nonzero "
            f"scalar multiple of the walk operator is hypercyclic on {space}"
        )
    return DualSpectrumReport(
        space,
        member,
        conclusion,
        coords,
        {
            "dual_test": test,
            "even_chain_log_factor": even,
            "odd_chain_log_factor": odd,
        },
    )


@dataclass(frozen=True)
class IntervalCheckReport:
    lambdas: tuple[float, ...]
    certified: tuple[bool, ...]
    all_certified: bool
    symmetric: bool
    n_max: int
    conclusion: str | None
    detail: dict = field(default_factory=dict)


def symmetric_dual_interval_check(
    n_max: int = 200, lambdas: tuple[float, ...] | None = None
) -> IntervalCheckReport:
    """Certify an interval of bounded eigenvector candidates at p = 1/2.

    For the balanced half-line walk and real lam in (-1, 1) the
    characteristic roots form a conjugate pair on the unit circle, so
    (q_n) stays bounded: each lam is certified by checking the
    eigen-equation residual and the explicit bound |c| + |d| from the root
    expansion q_n = c a^n + d b^n.  The operator is symmetric at p = 1/2,
    so each certified lam is a dual eigenvalue of the walk on l1; two or
    more, all certified, leave no room for supercyclicity there.  A
    non-finite lam raises ValueError.
    """
    p = 0.5
    walk = make_walk(Lattice.HALF_LINE, Constant(p))
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if lambdas is None:
        lambdas = tuple(-0.95 + 1.9 * k / 38 for k in range(39))
    if not lambdas:
        raise ValueError("the lambda grid is empty")
    if not all(map(math.isfinite, lambdas)):
        raise ValueError("lam must be finite")
    certified: list[bool] = []
    sups: list[float] = []
    bounds: list[float] = []
    for lam in lambdas:
        if not (-1.0 < lam < 1.0):
            certified.append(False)
            sups.append(math.nan)
            bounds.append(math.nan)
            continue
        roots = point_spectrum_probe(p, lam, SpaceSpec.linf()).evidence
        a, b = roots["alpha"], roots["beta"]
        q1 = (lam + p - 1.0) / p
        c = (q1 - b) / (a - b)
        d = 1.0 - c
        bound = abs(c) + abs(d)
        q = FinSeq.from_values(eigen_sequence(p, lam, n_max))
        sup_q = q.sup_abs()
        # eigen-equation residual on rows 0 .. n_max - 1 of the computed window
        res = FinSeq.from_values((walk.apply(q) - lam * q).values[:n_max]).sup_abs()
        ok = (
            abs(abs(a) - 1.0) <= 1e-12
            and sup_q <= bound * (1.0 + 1e-10)
            and res <= 1e-10 * max(1.0, sup_q)
        )
        certified.append(ok)
        sups.append(sup_q)
        bounds.append(bound)
    all_cert = all(certified)
    conclusion = None
    if all_cert and len(set(lambdas)) > 1:
        conclusion = (
            "every sampled lam in (-1, 1) carries a bounded eigenvector "
            "candidate; by symmetry these are dual eigenvalues of the walk "
            "on l1, and more than one dual eigenvalue rules out "
            "supercyclicity on l1"
        )
    return IntervalCheckReport(
        tuple(lambdas),
        tuple(certified),
        all_cert,
        True,  # at p = 1/2 every nonzero entry, the boundary one included, is 1/2
        n_max,
        conclusion,
        {"sup_q": tuple(sups), "coef_bounds": tuple(bounds)},
    )
