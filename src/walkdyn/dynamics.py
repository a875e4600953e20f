"""Certificates and obstructions for the dynamics of scaled walk operators.

The positive certificates all run through the same mechanism: the walk
operator W has an explicit right inverse S whose per-step norm growth is
bounded, and powers of W have finite-dimensional kernels whose basis
vectors agree with coordinate vectors up front.  For T = lam W this gives

  * a dense set annihilated by powers of T (forward sums terminate), and
  * backward orbits with ||(S/lam)^n x|| <= (bound/|lam|)^n ||x||.

When the certified ratio bound/|lam| is below 1 the standard criteria for
frequent hypercyclicity, Devaney chaos and supercyclicity apply.  Every
quantity the argument needs is recomputed numerically and reported in the
certificate's witness; a failed recomputation downgrades the verdict to
Undetermined rather than passing silently.  Both certificates read one
checked backward orbit (:func:`_checked_backward`): one run of the
backward loop, with the identity lam W z_k = z_{k-1} measured on every
step against the whole z_{k-1}, so the residuals include the trailing run
each step drops below tolerance.  Forward, T^n s = lam^n W^n s: that loop
iterates W alone, and lam only scales the reported norms.  Backward, (S/lam)^k s shrinks at the
certified ratio while S^k s grows like bound^k and would overflow: that
loop keeps its 1/lam scaling.  Decisions at a threshold (the certified
ratio, the column sums of a disproof) are exact on the stated values
(:func:`walkdyn.classify._stated`).

Negative results come in two flavors and the distinction is kept explicit:
"no by criterion" only records that this route is blocked, and is
Undetermined, while a genuine obstruction (bounded orbits, a conserved limit
value, a norm floor) rules the property out and is NO.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .classify import Verdict, _chain_factors, _stated, kernel_decay_log_factors
from .inverse_kernel import _backward, kernel_basis, kernel_window_for_tol, step_norm_bound
from .operators import BandedOp, Constant, _band_product, pseq_text
from .seqspace import FinSeq, Lattice, SpaceKind, SpaceSpec, _abs, _cdiv, _cmul, norm
from .seqspace import _framed_difference, _row_norms, _row_sums, _scaled

_BLOCK_CELLS = 8192  # cells of one block of rows, measured in one array pass


class CertKind(enum.Enum):
    FHC_CHAOS = "fhc-chaos"
    SUPERCYCLICITY = "supercyclicity"


@dataclass(frozen=True)
class Certificate:
    kind: CertKind
    verdict: Verdict
    params: dict
    witness: dict = field(default_factory=dict)
    reason: str | None = None


def _entry_checks(
    kind: CertKind, op: BandedOp, space: SpaceSpec, n_max: int, least: int, params: dict
) -> Certificate | None:
    """Raise off the half-line, for n_max below ``least`` and on l^infinity;
    the Undetermined certificate on c, where the criterion does not engage."""
    if op.lattice is not Lattice.HALF_LINE:
        raise ValueError("the certificate machinery is built for the half-line walk")
    if n_max < least:
        raise ValueError(f"n_max below {least} leaves no room past the annihilation index")
    if space.kind is SpaceKind.LINF:
        raise ValueError("l^infinity is not separable; transitivity-based dynamics is void there")
    if space.kind is SpaceKind.C:
        reason = (
            "the span of the kernel vectors closes up to c0, which is not dense in c "
            "(constant sequences are missed); the criterion does not engage"
        )
        return Certificate(kind, Verdict.UNDETERMINED, params, {}, reason)
    return None


def _settle(
    kind: CertKind,
    params: dict,
    witness: dict,
    checks: list[tuple[str, bool]],
    conclusion: str,
) -> Certificate:
    """YES with the conclusion when every named check passed, else
    Undetermined naming the checks that failed."""
    failed = [name for name, ok in checks if not ok]
    if failed:
        reason = "numerical verification failed: " + ", ".join(failed)
        return Certificate(kind, Verdict.UNDETERMINED, params, witness, reason)
    witness["conclusion"] = conclusion
    return Certificate(kind, Verdict.YES, params, witness)


def _blocks(rows, span=lambda r: (0, len(r)), per=1):
    """Rows in lists of at most _BLOCK_CELLS cells, ``per`` a row times the hull of their
    spans (at least one row a list).  One float-range rule: a loop whose values pass the
    float range raises OverflowError at that step, and a norm past it is inf, so no
    measurement raises and an error from the loop ends the blocks at once."""
    block, lo, hi = [], math.inf, -math.inf
    for row in rows:
        a, b = span(row)
        if block and per * (len(block) + 1) * (max(hi, b) - min(lo, a)) > _BLOCK_CELLS:
            yield block
            block, lo, hi = [], a, b
        block.append(row)
        lo, hi = min(lo, a), max(hi, b)
    if block:
        yield block


def _padded(rows, at=None, pad=0) -> np.ndarray:
    """The rows in a zero-padded block, row i from column at[i] (0), ``pad`` columns spare."""
    at = at or [0] * len(rows)
    width = max(a + len(row) for a, row in zip(at, rows)) + pad
    block = np.zeros((len(rows), width), np.result_type(*{row.dtype for row in rows}))
    for i, (a, row) in enumerate(zip(at, rows)):
        block[i, a : a + len(row)] = row
    return block


def _measured(rows, space: SpaceSpec) -> list[float]:
    """The norm of each row of moduli, a block at a time; a sup one row at a
    time, since it has no sum to share and padding would only copy the rows."""
    if space.kind is not SpaceKind.LQ:
        return [_row_norms(row[None], space)[0] for row in rows]
    return [r for block in _blocks(rows) for r in _row_norms(_padded(block), space)]


def _orbit_norms(op: BandedOp, x: FinSeq, n: int, space: SpaceSpec) -> list[float]:
    """Norms of x, Wx, ..., W^n x."""
    return _measured((_abs(y) for _, y in op._orbit(x, n)), space)


def _checked_backward(op: BandedOp, v: FinSeq, n: int, space: SpaceSpec, lam=None):
    """One run of the backward loop, checked on every step.

    Returns the norms of z_0 .. z_n, z_k = (S/lam)^k v (S^k v without lam),
    the residual ||lam W z_k - z_{k-1}|| / ||z_{k-1}|| of each step
    k = 1 .. n (W z_k - z_{k-1} without lam), and z_n.  z_{k-1} is the
    window as yielded, before the loop drops its trailing run below
    tolerance, so each residual includes that cut.  lam W z_k is formed
    on the plane of each window ``_backward`` yields, by ``_band_product``
    and ``_scaled``, the operations of ``lam * op.apply(z_k)``: its bits on
    complex128, its real parts on float64 up to the signs of zeros; every
    modulus, and so every norm, is the same.
    """
    lo = z = None

    def rows():
        """The moduli of z_0, of lam W z_1 - z_0, of z_1, of lam W z_2 - z_1, ..."""
        nonlocal lo, z
        prev, up, down = None, [], []  # the band, read once per run and doubled on demand
        for lo, z in _backward(op, v, n, lam):
            if prev:
                # z_k, k >= 1, is trimmed and starts at lo >= 1 (u_0 = 0; read an
                # empty one at 1): apply's rows are lo - 1 .. hi + 1, row 0 on a zero
                lo = max(lo, 1)
                hi = lo + len(z) - 1
                if len(up) < hi + 2:
                    up, down = op._band(np.arange(2 * hi + 4))
                zs = np.concatenate(([0.0, 0.0], z, [0.0, 0.0]))  # z on lo - 2 .. hi + 2
                w = _band_product(down[lo - 1 : hi + 2], zs[:-2], up[lo - 1 : hi + 2], zs[2:])
                w = w if lam is None else _scaled(lam, w)
                _, diff = _framed_difference(lo - 1, w, *prev)
                yield _abs(diff)
            prev = lo, z
            yield _abs(z)

    measured = _measured(rows(), space)
    norms = measured[::2]
    residuals = [d / max(zn, 1e-300) for d, zn in zip(measured[1::2], norms)]
    return norms, residuals, FinSeq(op.lattice, lo, z)


def _column_bound(op: BandedOp):
    """The operator's column-sum norm sup_j sum_i |A_{i,j}|, as a Fraction.

    Column j sums p_{j-1} (row j-1) and 1 - p_{j+1} (row j+1); on the
    half-line column 0 sums 1 - p_0 and 1 - p_1.  The sums are exact on the
    stated values (:func:`walkdyn.classify._stated`).  Away from the prefix
    a column's sum repeats with the cycle, so the columns from the boundary
    (or one cycle before the prefix, on the line) to one cycle past the
    prefix attain the supremum.  On the half-line a prefix that ends before index 0 is never
    read, so the range then runs from the boundary columns through one cycle.
    """
    pseq = op.pseq
    reach = len(pseq.cycle) + 1
    end = pseq.start + len(pseq.prefix)
    lo, hi = pseq.start - reach, end + reach
    if op.lattice is Lattice.HALF_LINE:
        lo, hi = 0, max(end, 0) + reach
    p = [_stated(pseq.at(n)) for n in range(lo - 1, hi + 2)]  # p_{lo-1} .. p_{hi+1}
    sums = [p[k - 1] + (1 - p[k + 1]) for k in range(1, hi - lo + 2)]  # columns lo .. hi
    if op.lattice is Lattice.HALF_LINE:
        sums[0] = (1 - p[1]) + (1 - p[2])
    return max(sums)


def fhc_chaos_certificate(
    op: BandedOp,
    lam: complex,
    space: SpaceSpec,
    n_max: int = 20,
    tol: float = 1e-6,
) -> Certificate:
    """Certificate of frequent hypercyclicity and chaos for lam * walk.

    The criterion (Grosse-Erdmann & Peris, Linear Chaos, ch. 9) needs W S =
    I, ||(S/lam)^k|| <= ratio^k with ratio = step_norm_bound/|lam| < 1, and
    T^m s = 0, that is W^m s = 0, for T = lam W and a kernel sample s of
    W^m.  Then z_k = (S/lam)^k s sums to a periodic point x = sum_j z_{jm},
    T^m x = x, whose terms past z_{Jm} add at most ||z_{Jm}|| ratio^m /
    (1 - ratio^m) (``backward_norms``, ``certified_ratio``); no sum is formed.

    YES requires ratio < 1, decided exactly on the stated values of lam and
    the p_k as |lam|^2 (2 min p - 1)^2 > 1 (the float ratio only words the
    reason), and checks on one backward orbit z_0 .. z_{n_max} and the
    forward orbit of s: lam W z_k = z_{k-1} to 1e-10 relative at k = 1
    (inverse-identity) and at k = 2 .. n_max (periodic-point, the n_max // m
    periods of ``periodic_terms``), every norm above the residuals' 1e-300
    floor (backward-underflow); the tail of ||W^n s||, n >= m, below 1e-10
    of the head (``forward_norms`` holds ||T^n s|| = ||W^n s|| |lam|^n, inf
    past the float range); backward norms contracting at least at the
    certified ratio.  NO is a genuine disproof: ratio >= 1, |lam| <= 1 and
    the walk a contraction (on c0 always, else when every column sums to at
    most 1, exactly), so every orbit is bounded.  Any other ratio >= 1 only
    blocks this criterion and is Undetermined, and so is a kernel window for
    the sample that would pass its cap; the reason names which.
    """
    lam = complex(lam)
    params = {
        "pseq": pseq_text(op.pseq),
        "lam": lam,
        "space": str(space),
        "n_max": int(n_max),
        "tol": float(tol),
    }
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if not np.isfinite(lam):
        raise ValueError("lam must be finite")
    if (blocked := _entry_checks(CertKind.FHC_CHAOS, op, space, n_max, 8, params)) is not None:
        return blocked

    bound = step_norm_bound(op)
    modulus = math.hypot(lam.real, lam.imag)  # inf past the float range, where abs raises
    ratio = bound / modulus
    witness: dict = {"step_bound": bound, "certified_ratio": ratio}

    # the float ratio rounds, so the test is exact on the stated values:
    # with every p_k above one half, sup |r_k| = (1 - min p)/min p and the
    # step bound is 1/(2 min p - 1); the float ratio only words the reason
    lam2 = _stated(lam.real) ** 2 + _stated(lam.imag) ** 2
    gap = 2 * _stated(min(op.pseq.probabilities())) - 1
    if not (gap > 0 and lam2 * gap**2 > 1):
        if lam2 <= 1 and (space.kind is SpaceKind.C0 or _column_bound(op) <= 1):
            reason = (
                "no by criterion (certified ratio >= 1), and in fact a "
                "disproof: |lam| <= 1 while the walk is a contraction, so "
                "every orbit is norm-bounded and none is dense"
            )
            return Certificate(CertKind.FHC_CHAOS, Verdict.NO, params, witness, reason)
        if gap > 0:
            test = "certified ratio >= 1" if ratio >= 1.0 else (
                "the certified ratio rounds below 1, but |lam|^2 (2 min p - 1)^2 <= 1 exactly"
            )
            reason = (
                f"no by criterion: {test} (need |lam| above the "
                "per-step inverse bound); this blocks the certificate and is "
                "not a disproof"
            )
        else:
            reason = (
                "no per-step bound for the right inverse: the jump probabilities "
                "do not stay above one half, so preimage tails need not decay"
            )
        return Certificate(CertKind.FHC_CHAOS, Verdict.UNDETERMINED, params, witness, reason)

    m = 6
    deep_tol = 1e-60
    try:
        window = kernel_window_for_tol(op.pseq, deep_tol) + m
    except ValueError as exc:
        return Certificate(CertKind.FHC_CHAOS, Verdict.UNDETERMINED, params, witness, str(exc))
    (sample,) = kernel_basis(op, m, window, tol=deep_tol, count=1)

    # forward orbit of the kernel sample: T^n s = lam^n W^n s, so T^m s = 0
    # is judged on W^n s, with no roundoff amplified by |lam|^n; the witness
    # scales each norm by a running product of |lam|, inf once it overflows
    fwd = _orbit_norms(op, sample, n_max, space)
    scaled_tail = math.fsum(fwd[m:])
    powers = itertools.accumulate([modulus] * n_max, float.__mul__, initial=1.0)

    # one checked backward orbit z_k = (S/lam)^k sample, k <= n_max
    back, residuals, _ = _checked_backward(op, sample, n_max, space, lam)
    ratios = [back[k + 1] / back[k] for k in range(n_max) if back[k] > 0]
    max_ratio = max(ratios) if ratios else 0.0

    witness.update(
        {
            "inverse_residual": residuals[0],
            "annihilation_index": m,
            "forward_norms": tuple(f * q if f else f for f, q in zip(fwd, powers)),
            "forward_scaled_tail": scaled_tail,
            "backward_norms": tuple(back),
            "max_empirical_ratio": max_ratio,
            "measured_ratio": back[-1] / back[-2] if back[-2] > 0 else 0.0,
            "periodic_period": m,
            "periodic_terms": n_max // m,
            "periodic_residual": max(residuals[1:]),
        }
    )
    return _settle(
        CertKind.FHC_CHAOS,
        params,
        witness,
        [
            ("inverse-identity", residuals[0] <= 1e-10),
            ("forward-annihilation", scaled_tail <= 1e-10 * max(fwd[: m + 1])),
            ("backward-ratio", max_ratio <= ratio * (1.0 + tol)),
            ("periodic-point", all(r <= 1e-10 for r in residuals[1:])),
            # past a norm under the residuals' floor no step is checked
            ("backward-underflow", min(back) >= 1e-300),
        ],
        "frequent hypercyclicity and chaos hold: backward sums converge "
        "geometrically at the certified ratio and a dense set has "
        "finite forward orbits",
    )


def supercyclicity_criterion_certificate(
    op: BandedOp, space: SpaceSpec, n_max: int = 16
) -> Certificate:
    """Supercyclicity certificate for the walk operator itself.

    The comparison criterion needs only exactness of W^n S^n = identity
    plus a dense set with terminating forward orbits, so no scalar enters.
    It engages whenever the kernel weights decay: constant p > 1/2, or
    position-dependent probabilities whose parity chains shrink per cycle.
    Otherwise the kernel is trivial in the space and the certificate
    reports Undetermined; so it does, naming the cap, when the kernel
    window would pass its cap, and when the kernel vector passes the float
    range.
    """
    params = {"pseq": pseq_text(op.pseq), "space": str(space), "n_max": int(n_max)}
    if (blocked := _entry_checks(CertKind.SUPERCYCLICITY, op, space, n_max, 6, params)) is not None:
        return blocked

    pseq = op.pseq
    log_factors = kernel_decay_log_factors(pseq)
    if max(_chain_factors(pseq)) >= 1:
        return Certificate(
            CertKind.SUPERCYCLICITY,
            Verdict.UNDETERMINED,
            params,
            {"kernel_chain_log_factors": log_factors},
            "the kernel is trivial in the space (zero-eigenvector weights do "
            "not decay); the criterion does not engage; for symmetric walks "
            "the dual point-spectrum reports carry the actual obstructions",
        )

    m = 4
    deep_tol = 1e-30
    try:
        window = kernel_window_for_tol(pseq, deep_tol) + m
        sample, target = kernel_basis(op, m, window, tol=deep_tol, count=2)
    except (ValueError, OverflowError) as exc:  # the window's cap, or the float range
        return Certificate(
            CertKind.SUPERCYCLICITY,
            Verdict.UNDETERMINED,
            params,
            {"kernel_chain_log_factors": log_factors},
            str(exc),
        )

    # exactness of the right inverse on the target: each single step is
    # well conditioned, so W(Sz) = z is demanded tightly along the whole
    # backward orbit; the full W^n S^n round trip passes through norms of
    # order (2p-1)^{-n}, so its residual is gated by that dynamic range
    back, residuals, z = _checked_backward(op, target, n_max, space)
    step_residual = max(0.0, *residuals)
    z = op.power_apply(n_max, z)
    inverse_residual = norm(z - target, space)
    dynamic_range = max(back) / max(back[0], 1e-300)
    inverse_ok = step_residual <= 1e-12 and inverse_residual <= 1e-11 * max(
        1.0, back[0]
    ) * max(1.0, dynamic_range)

    # forward orbits of the kernel sample terminate at index m
    fwd = _orbit_norms(op, sample, n_max, space)
    annihilation_residual = math.fsum(fwd[m:])
    forward_ok = annihilation_residual <= 1e-12 * max(1.0, fwd[0])

    # product condition: the forward factor is numerically zero past m
    products = [fwd[k] * back[k] for k in range(m, n_max + 1)]
    product_ok = max(products) <= 1e-10 * max(1.0, max(back))

    witness = {
        "annihilation_index": m,
        "forward_norms": tuple(fwd),
        "backward_norms": tuple(back),
        "inverse_residual": inverse_residual,
        "step_residual": step_residual,
        "backward_dynamic_range": dynamic_range,
        "max_product": max(products),
        "kernel_chain_log_factors": log_factors,
        "window": window,
    }
    return _settle(
        CertKind.SUPERCYCLICITY,
        params,
        witness,
        [
            ("inverse-exactness", inverse_ok),
            ("forward-annihilation", forward_ok),
            ("product-condition", product_ok),
        ],
        "supercyclicity holds: forward orbits of a dense set terminate "
        "while the right inverse recovers every target exactly",
    )


@dataclass(frozen=True)
class ObstructionReport:
    alpha: complex
    floor: float
    start_norm: float
    floor_ratio: float
    probe_index: int
    probe_values: tuple[complex, ...]
    orbit_sups: tuple[float, ...]
    probe_ratios: tuple[float, ...]
    deviation_sups: tuple[float, ...]
    row_sum_deviation: float
    conclusion: str


def constant_tail_obstruction(
    op: BandedOp,
    alpha: complex,
    perturbation: FinSeq,
    i_probe: int = 0,
    n_max: int = 50,
) -> ObstructionReport:
    """Obstruction to hypercyclicity on c: the limit value is conserved.

    Rows of the walk operator sum to one, so for y = alpha * 1 + phi with
    finitely supported phi, (W^n y)_i = alpha + (W^n phi)_i for every i
    and n.  Each orbit point therefore has limit alpha again, and its sup
    distance to any sequence with limit zeta is at least |alpha - zeta|.
    The report tracks the probe coordinate, the per-step projective ratio
    |(W^n y)_i| / ||W^n y||_inf, and the row-sum roundoff backing the
    identity.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero for the obstruction to bite")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if perturbation.lattice is not op.lattice:
        raise ValueError("the perturbation must live on the operator's lattice")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    op._check_index(i_probe)
    probe_values, orbit_sups, probe_ratios, dev_sups = [], [], [], []
    for lo, phi in op._orbit(perturbation, n_max):  # phi = W^n perturbation
        k = i_probe - lo
        value = alpha + (complex(phi[k]) if 0 <= k < len(phi) else 0j)
        sup = max([abs(alpha)] + _abs(alpha + phi).tolist())
        probe_values.append(value)
        orbit_sups.append(sup)
        probe_ratios.append(abs(value) / sup)
        dev_sups.append(float(_abs(phi).max(initial=0.0)))
    dev = max(abs((1.0 - p) + p - 1.0) for p in op.pseq.probabilities())
    return ObstructionReport(
        alpha=alpha,
        floor=abs(alpha),
        start_norm=orbit_sups[0],
        floor_ratio=abs(alpha) / orbit_sups[0],
        probe_index=i_probe,
        probe_values=tuple(probe_values),
        orbit_sups=tuple(orbit_sups),
        probe_ratios=tuple(probe_ratios),
        deviation_sups=tuple(dev_sups),
        row_sum_deviation=dev,
        conclusion=(
            "every orbit point keeps the limit value alpha, so its sup "
            "distance to any sequence with a different limit never drops "
            "below the gap between the limits; no orbit is dense in c"
        ),
    )


@dataclass(frozen=True)
class LineBoundReport:
    factor: float
    n: int
    start_norm: float
    bound: float
    measured: float
    step_norms: tuple[float, ...]
    holds: bool
    blocked_scaling_threshold: float
    conclusion: str


def line_walk_lower_bound(
    op: BandedOp, x: FinSeq, n: int, space: SpaceSpec
) -> LineBoundReport:
    """Norm floor for the biased walk on the whole line.

    With constant p != 1/2 the two-sided walk satisfies
    ||W^n x|| >= |1 - 2p|^n ||x|| in every norm that makes the shifts
    isometries (the symbol (1-p)/z + p z keeps modulus at least |1-2p| on
    the unit circle, and its reciprocal has summable coefficients).  At
    p = 1/2 the bound is vacuous and a ValueError is raised.  Scaled
    walks lam * W with |lam| >= 1/|1-2p| therefore have no orbit tending
    to zero, which blocks hypercyclicity there.
    """
    if op.lattice is not Lattice.LINE:
        raise ValueError("the lower bound concerns the walk on the whole line")
    if not isinstance(op.pseq, Constant):
        raise ValueError("the lower bound needs a constant jump probability")
    p = op.pseq.p
    if p == 0.5:
        raise ValueError("the bound is vacuous at p = 1/2 (|1 - 2p| = 0)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if x.lattice is not Lattice.LINE:
        raise ValueError("the vector must live on the line")
    factor = abs(1.0 - 2.0 * p)
    steps = _orbit_norms(op, x, n, space)
    bound = factor**n * steps[0]
    measured = steps[-1]
    holds = measured >= bound * (1.0 - 1e-9) and all(
        steps[k + 1] >= factor * steps[k] * (1.0 - 1e-9) for k in range(n)
    )
    return LineBoundReport(
        factor=factor,
        n=n,
        start_norm=steps[0],
        bound=bound,
        measured=measured,
        step_norms=tuple(steps),
        holds=holds,
        blocked_scaling_threshold=1.0 / factor,
        conclusion=(
            "the n-step image keeps at least |1-2p|^n of the starting norm, "
            "so orbits cannot rush to zero and scaled walks with "
            "|lam| >= 1/|1-2p| have no orbit converging to zero"
        ),
    )


@dataclass(frozen=True)
class OrbitProbeReport:
    n_max: int
    space: SpaceSpec
    threshold: float
    projective: bool
    orbit_norms: tuple[float, ...]
    best: tuple[tuple[float, int], ...]
    visits: tuple[tuple[int, ...], ...]


def orbit_density_probe(
    op: BandedOp,
    x: FinSeq,
    targets: Sequence[FinSeq],
    space: SpaceSpec | None = None,
    n_max: int = 200,
    threshold: float = 0.25,
    projective: bool = False,
) -> OrbitProbeReport:
    """Track how closely the orbit of x approaches each target.

    With ``projective`` the orbit point is rescaled before measuring
    (least-squares scalar on the overlap, an upper estimate of the true
    projective distance); the output is then invariant under scaling x.
    Exploratory: small minima are evidence of density, never proof.  A nan
    or negative threshold raises ValueError.
    """
    space = space or SpaceSpec.c0()
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if any(t.lattice is not op.lattice for t in targets):
        raise ValueError("cannot combine sequences over different lattices")
    best = [(math.inf, -1)] * len(targets)
    visits: list[list[int]] = [[] for _ in targets]
    norms: list[float] = []
    real = not any(t.values.imag.any() for t in targets)  # |y - t| keeps its bits on t.real
    pad = max((len(t.values) for t in targets), default=0)
    steps = ((lo, y.copy()) for lo, y in op._orbit(x, n_max))  # _orbit reuses its buffers
    for block in _blocks(steps, lambda r: (r[0], r[0] + len(r[1]) + pad), 1 + len(targets)):
        # the windows by index from lo0, and past their hull, at hi0, the entries
        # of each target outside it, so a target out of reach does not widen a block
        lo0, hi0 = min(lo for lo, _ in block), max(lo + len(y) for lo, y in block)
        at = [lo - lo0 for lo, _ in block]
        ys = _padded([y for _, y in block], at, pad)
        ts = np.zeros((len(targets), ys.shape[1]), np.float64 if real else np.complex128)
        for j, t in enumerate(targets):
            tv = t.values.real if real else t.values
            a, b = (min(max(i - t.offset, 0), len(tv)) for i in (lo0, hi0))  # tv[a:b] in the hull
            ts[j, t.offset + a - lo0 : t.offset + b - lo0] = tv[a:b]
            ts[j, hi0 - lo0 : hi0 - lo0 + len(tv) - b + a] = np.concatenate((tv[:a], tv[b:]))
        mags = _abs(ys)
        norms += _row_norms(mags, space)
        if projective:
            with np.errstate(over="ignore"):
                squares = np.float_power(mags, 2.0)
            dens = _row_sums(squares)
            if any(math.isinf(d) and np.isfinite(mags[i]).all() for i, d in enumerate(dens)):
                raise OverflowError("the orbit's squared norm passes the float range (about 1.8e308)")
            # c = sum t conj(y) / den in index order on the frame (its extra terms are signed
            # zeros; none on an empty frame), 0 where den <= 0
            num = np.add.accumulate(_cmul(ts, np.conj(ys)[:, None]), axis=2)[..., -1:]
            den = dens[:, None, None]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                c = np.where(den > 0, _cdiv(num, den), 0.0)
            # c y on the window of y alone, where c may be inf
            inside = _padded([np.ones(len(y), bool) for _, y in block], at, pad)
            ys = np.where(inside[:, None], _cmul(c, ys[:, None]), 0.0)
        rows = _abs((ys if projective else ys[:, None]) - ts)
        dists = iter(_row_norms(rows.reshape(len(block) * len(targets), ts.shape[1]), space))
        for i, step in enumerate(range(len(norms) - len(block), len(norms))):
            for t_idx, t in enumerate(targets):
                d = next(dists) if not projective or dens[i] > 0 else norm(t, space)
                if d < best[t_idx][0]:
                    best[t_idx] = (d, step)
                if d <= threshold:
                    visits[t_idx].append(step)
    return OrbitProbeReport(
        n_max=n_max,
        space=space,
        threshold=threshold,
        projective=projective,
        orbit_norms=tuple(norms),
        best=tuple(best),
        visits=tuple(tuple(v) for v in visits),
    )


def lower_density_estimate(hit_times: Iterable[int], horizon: int) -> float:
    """Finite-horizon stand-in for the lower density of a hit-time set.

    Returns min over n in [horizon/2, horizon] of #{hits in [1, n]} / n;
    the restriction to the trailing window keeps early luck from inflating
    the estimate.  Frequent hypercyclicity needs positive lower density
    for every neighborhood, so a sequence of these estimates staying away
    from zero is supporting evidence, never proof.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    hits = sorted({t for t in hit_times if 1 <= t <= horizon})
    lo = max(1, horizon // 2)
    worst = math.inf
    idx = 0
    for n in range(lo, horizon + 1):
        while idx < len(hits) and hits[idx] <= n:
            idx += 1
        worst = min(worst, idx / n)
    return worst
