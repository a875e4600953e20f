import cmath
import math
import random

import numpy as np
import pytest

from walkdyn import dynamics
from walkdyn.dynamics import (
    CertKind,
    Verdict,
    constant_tail_obstruction,
    fhc_chaos_certificate,
    line_walk_lower_bound,
    lower_density_estimate,
    orbit_density_probe,
    supercyclicity_criterion_certificate,
)
from walkdyn.inverse_kernel import _backward, right_inverse, step_norm_bound
from walkdyn.operators import BandedOp, Constant, ListWithTail, Periodic, make_walk
from walkdyn.seqspace import FinSeq, Lattice, SpaceSpec, norm
from walkdyn.spectral import point_spectrum_probe

from conftest import apply_chain, apply_entrywise, random_finseq


def walk(pseq, lattice=Lattice.HALF_LINE):
    return make_walk(lattice, pseq)


class TestFhcCertificate:
    def test_yes_above_threshold(self, walk_075):
        cert = fhc_chaos_certificate(walk_075, 3.0, SpaceSpec.c0())
        assert cert.kind is CertKind.FHC_CHAOS
        assert cert.verdict is Verdict.YES
        assert cert.witness["certified_ratio"] == pytest.approx(2 / 3, abs=1e-12)
        assert cert.witness["max_empirical_ratio"] <= 2 / 3 * (1 + 1e-6)
        assert cert.witness["periodic_residual"] < 1e-8

    def test_yes_survives_doubled_horizon(self, walk_075):
        base = fhc_chaos_certificate(walk_075, 3.0, SpaceSpec.c0(), n_max=16)
        double = fhc_chaos_certificate(walk_075, 3.0, SpaceSpec.c0(), n_max=32)
        assert base.verdict is Verdict.YES
        assert double.verdict is Verdict.YES

    def test_no_by_criterion_below_threshold(self, walk_075):
        # a blocked route proves nothing: lam W has the eigenvalue 1 with an
        # eigenvector in c0 here, so it was never a NO
        cert = fhc_chaos_certificate(walk_075, 1.5, SpaceSpec.c0())
        assert cert.verdict is Verdict.UNDETERMINED
        assert "not a disproof" in cert.reason
        assert point_spectrum_probe(0.75, 1 / 1.5, SpaceSpec.c0()).member is Verdict.YES
        assert cert.witness["certified_ratio"] == pytest.approx(4 / 3, abs=1e-12)

    def test_no_is_disproof_for_small_lambda(self, walk_075):
        cert = fhc_chaos_certificate(walk_075, 1.0, SpaceSpec.c0())
        assert cert.verdict is Verdict.NO
        assert "disproof" in cert.reason
        assert cert.witness["certified_ratio"] == pytest.approx(2.0, abs=1e-12)

    def test_yes_monotone_in_lambda_modulus(self, walk_075):
        verdicts = [
            fhc_chaos_certificate(walk_075, lam, SpaceSpec.c0()).verdict
            for lam in (2.2, 2.8, 3.5, 5.0, 2.5j, -4.0)
        ]
        assert all(v is Verdict.YES for v in verdicts)

    def test_undetermined_when_no_bound(self):
        cert = fhc_chaos_certificate(walk(Constant(0.45)), 3.0, SpaceSpec.c0())
        assert cert.verdict is Verdict.UNDETERMINED
        assert not math.isfinite(cert.witness["certified_ratio"])

    def test_linf_rejected(self, walk_075):
        with pytest.raises(ValueError):
            fhc_chaos_certificate(walk_075, 3.0, SpaceSpec.linf())

    def test_c_space_blocked_with_reason(self, walk_075):
        cert = fhc_chaos_certificate(walk_075, 3.0, SpaceSpec.c())
        assert cert.verdict is Verdict.UNDETERMINED
        assert cert.reason

    def test_inhomogeneous_decaying_yes(self):
        op = walk(Periodic((0.7, 0.85)))
        cert = fhc_chaos_certificate(op, 5.0, SpaceSpec.c0())
        assert cert.verdict is Verdict.YES

    def test_long_list_column_bound_not_a_disproof(self):
        # the column sum at index 69 is 0.6 + (1 - 0.2) = 1.4 > 1, so W is
        # not a contraction on l1 and |lam| <= 1 disproves nothing
        op = walk(ListWithTail((0.6,) * 70 + (0.2, 0.9, 0.2), 0.6))
        cert = fhc_chaos_certificate(op, 1.0, SpaceSpec.lq(1))
        assert "disproof" not in (cert.reason or "")

    def test_prefix_before_half_line_column_bound_not_a_disproof(self):
        # the prefix sits at index -5, so every half-line probability is
        # 0.3 and column 0 sums (1 - 0.3) + (1 - 0.3) = 1.4 > 1
        op = walk(ListWithTail((0.9,), 0.3, start=-5))
        cert = fhc_chaos_certificate(op, 1.0, SpaceSpec.lq(1))
        assert "disproof" not in (cert.reason or "")

    @pytest.mark.parametrize("lam, n_max", [(3.0, 20), (10.0, 40)])
    def test_one_backward_orbit_feeds_every_check(self, walk_075, monkeypatch, lam, n_max):
        # the inverse identity, the backward norms and the periodic point
        # all read the one orbit z_k = (S/lam)^k sample, k <= n_max, in one
        # run of the backward loop; no separate right inverse is taken
        runs = yields = 0
        inner = dynamics._backward

        def counting_orbit(*args, **kwargs):
            nonlocal runs, yields
            runs += 1
            for item in inner(*args, **kwargs):
                yields += 1
                yield item

        monkeypatch.setattr(dynamics, "_backward", counting_orbit)
        cert = fhc_chaos_certificate(walk_075, lam, SpaceSpec.c0(), n_max=n_max)
        assert cert.verdict is Verdict.YES
        assert not hasattr(dynamics, "right_inverse")
        assert (runs, yields) == (1, n_max + 1)  # z_0 .. z_{n_max}
        assert cert.witness["periodic_terms"] == n_max // 6

    def test_ratio_one_ulp_below_one_decided_exactly(self):
        # the float ratio reads 0.9999999999999999, but on the stated values
        # |lam| (2p - 1) = 99.99999999999993 * 0.01 <= 1: the route is blocked
        # (on the floats' dyadic values it would pass)
        cert = fhc_chaos_certificate(walk(Constant(0.505)), 99.99999999999993, SpaceSpec.c0())
        assert cert.witness["certified_ratio"] == 0.9999999999999999
        assert cert.verdict is Verdict.UNDETERMINED
        assert "not a disproof" in cert.reason

    def test_ratio_rounding_below_one_names_the_exact_test(self):
        # the witness reads a float ratio below 1, so the reason must not
        # claim ratio >= 1: it names the exact test that blocked the route
        cert = fhc_chaos_certificate(walk(Constant(0.555)), 9.090909090909085, SpaceSpec.c0())
        assert cert.witness["certified_ratio"] == 0.9999999999999998
        assert cert.verdict is Verdict.UNDETERMINED
        assert "certified ratio >= 1" not in cert.reason
        assert "|lam|^2 (2 min p - 1)^2 <= 1 exactly" in cert.reason
        assert "not a disproof" in cert.reason

    @pytest.mark.parametrize(
        "pseq, lam, ratio",
        [
            # |lam|^2 (2 min p - 1)^2 - 1 is +7.3e-17 on the stated values
            # and -2.4e-17 on the floats' dyadic values
            (Periodic((0.8841995512517797, 0.8443879956274093)), 1.4518508378583153,
             0.9999999999999999),
            # the float ratio rounds up to 1, the exact margin is positive
            (Constant(0.616), 4.310344827586207, 1.0),
        ],
        ids=["dyadic-blocked", "float-ratio-one"],
    )
    def test_ratio_decided_on_the_stated_values(self, pseq, lam, ratio):
        cert = fhc_chaos_certificate(walk(pseq), lam, SpaceSpec.c0())
        assert cert.witness["certified_ratio"] == ratio
        assert cert.verdict is Verdict.YES
        assert cert.witness["max_empirical_ratio"] < 0.99

    @pytest.mark.parametrize(
        "pseq, lam",
        [
            # a column sums to 0.6 + (1 - 0.5999999999999) = 1 + 1e-13
            (Periodic((0.6, 0.6, 0.5999999999999)), 1.0),
            # abs() rounds |lam| to 1, while |lam|^2 = 1 + 1e-18 exactly
            (Constant(0.75), 1 + 1e-9j),
        ],
        ids=["column-sum", "lam-modulus"],
    )
    def test_disproof_gate_decided_exactly(self, pseq, lam):
        cert = fhc_chaos_certificate(walk(pseq), lam, SpaceSpec.lq(1))
        assert cert.verdict is Verdict.UNDETERMINED
        assert "not a disproof" in cert.reason

    def test_forward_tail_judged_against_the_scaled_head(self, monkeypatch):
        # a kernel window cut at 1e-16 leaves T^6 s = 12.5 at lam = 24: its
        # rescaled tail 6.8e-7 is small against the unscaled head 2e6, but
        # not against the rescaled head 4.5e3
        inner = dynamics.kernel_window_for_tol
        monkeypatch.setattr(dynamics, "kernel_window_for_tol", lambda pseq, tol: inner(pseq, 1e-16))
        cert = fhc_chaos_certificate(walk(Constant(0.55)), 24.0, SpaceSpec.c0())
        assert cert.verdict is Verdict.UNDETERMINED
        assert cert.reason == "numerical verification failed: forward-annihilation"

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_non_finite_lam_rejected(self, walk_075, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            fhc_chaos_certificate(walk_075, lam, SpaceSpec.c0())

    @pytest.mark.parametrize(
        "lam, n_max, step",
        [
            (1e20, 20, 16),
            (1e12, 40, 26),
            (-1e300, 20, 2),
            (complex(1e300, 1e300), 20, 1),
            (complex(1.5e308, 1.5e308), 20, 1),  # |lam| overflows: abs(lam) raised
        ],
    )
    def test_huge_lam_reports_where_the_backward_orbit_underflows(self, walk_075, lam, n_max, step):
        # |lam|^n overflows the forward witness to inf, and the backward
        # orbit falls below the residuals' 1e-300 floor at the given step,
        # before n_max: the steps past it check nothing, and the reason says so
        cert = fhc_chaos_certificate(walk_075, lam, SpaceSpec.c0(), n_max=n_max)
        assert cert.verdict is Verdict.UNDETERMINED
        assert cert.reason.startswith("numerical verification failed: ")
        assert cert.reason.endswith("backward-underflow")
        assert cert.witness["forward_norms"][-1] == math.inf
        back = cert.witness["backward_norms"]
        assert back[step] < 1e-300 <= min(back[:step])

    def test_a_subnormal_backward_tail_is_no_decay_failure(self):
        # a backward step's tol * sup|z| underflowed to 0 and its decaying tail
        # raised TailNotDecayingError ("the jump probabilities do not eventually
        # exceed one half"), for 12 of these 100 lam at p = 0.6
        op = walk(Constant(0.6))
        cert = fhc_chaos_certificate(op, 1e22, SpaceSpec.c0())
        assert cert.reason == "numerical verification failed: periodic-point, backward-underflow"
        for lam in np.logspace(10, 307, 100).tolist():
            cert = fhc_chaos_certificate(op, lam, SpaceSpec.c0())
            assert cert.verdict in (Verdict.YES, Verdict.UNDETERMINED)

    def test_line_lattice_rejected(self):
        with pytest.raises(ValueError):
            fhc_chaos_certificate(walk(Constant(0.75), Lattice.LINE), 3.0, SpaceSpec.c0())

    @pytest.mark.parametrize(
        "p, lam, space",
        [
            (0.75, 30.0, SpaceSpec.c0()),
            (0.75, 100.0, SpaceSpec.c0()),
            (0.5504, -24.7788, SpaceSpec.lq(2)),
        ],
    )
    def test_periodic_point_judged_relative_to_lam_power(self, p, lam, space):
        # at these |lam|, T^6 would amplify the roundoff of a summed periodic
        # point by |lam|^6; the per-step identity lam W z_k = z_{k-1} needs
        # no such factor and holds to about 5e-16
        cert = fhc_chaos_certificate(walk(Constant(p)), lam, space)
        assert cert.verdict is Verdict.YES, cert.reason
        assert cert.witness["periodic_residual"] <= 1e-10

    def test_wrong_periodic_point_still_fails(self, walk_075, monkeypatch):
        # every backward step after the first is off by 1e-3 |z| at one
        # coordinate, so only the periodic point is wrong; at lam = 30 a
        # gate scaled by |lam|^6 would forgive it
        def skewed(op, z, k, lam):
            yield z.offset, z.values
            for step in range(1, k + 1):
                u = right_inverse(op, z)
                if step > 1:
                    u = u + FinSeq.unit(2) * (1e-3 * z.sup_abs())
                z = u * (1.0 / lam)
                yield z.offset, z.values

        monkeypatch.setattr(dynamics, "_backward", skewed)
        for lam in (3.0, 30.0):
            cert = fhc_chaos_certificate(walk_075, lam, SpaceSpec.c0())
            assert cert.verdict is Verdict.UNDETERMINED
            assert cert.reason == "numerical verification failed: periodic-point"



@pytest.mark.parametrize(
    "certify, least",
    [
        (lambda op, space, n_max: fhc_chaos_certificate(op, 3.0, space, n_max=n_max), 8),
        (lambda op, space, n_max: supercyclicity_criterion_certificate(op, space, n_max), 6),
    ],
    ids=["fhc", "supercyclicity"],
)
def test_both_certificates_share_the_entry_checks(certify, least):
    op = walk(Constant(0.75))
    with pytest.raises(ValueError, match="built for the half-line walk"):
        certify(walk(Constant(0.75), Lattice.LINE), SpaceSpec.c0(), least)
    with pytest.raises(ValueError, match=f"n_max below {least} leaves no room"):
        certify(op, SpaceSpec.c0(), least - 1)
    with pytest.raises(ValueError, match="l\\^infinity is not separable"):
        certify(op, SpaceSpec.linf(), least)
    cert = certify(op, SpaceSpec.c(), least)
    assert (cert.verdict, cert.witness) == (Verdict.UNDETERMINED, {})
    assert cert.reason.startswith("the span of the kernel vectors closes up to c0")
    assert certify(op, SpaceSpec.c0(), least).verdict is Verdict.YES


@pytest.mark.parametrize("lam, message", [(0.0, "nonzero"), (math.nan, "finite")])
def test_fhc_rejects_an_invalid_lam_before_the_space(walk_075, lam, message):
    # on c the certificate answers undetermined, but never for an invalid lam
    with pytest.raises(ValueError, match=f"lam must be {message}"):
        fhc_chaos_certificate(walk_075, lam, SpaceSpec.c())


@pytest.mark.parametrize("space", [SpaceSpec.c0(), SpaceSpec.lq(1), SpaceSpec.lq(2)], ids=str)
@pytest.mark.parametrize("p", [0.505, 0.51, 0.52, 0.53, 0.55])
def test_verdicts_near_one_half(p, space):
    # near p = 1/2 the kernel samples are longest and the windows widest; the
    # cut of each window's trailing mass keeps every verdict and keeps the
    # supercyclicity step residual an order below its 1e-12 gate
    op = walk(Constant(p))
    sc = supercyclicity_criterion_certificate(op, space)
    fhc = fhc_chaos_certificate(op, 1.3 * step_norm_bound(op), space)
    if p == 0.505:  # fhc's 1e-60 kernel window passes its cap
        assert fhc.verdict is Verdict.UNDETERMINED and "cap=12000" in fhc.reason
    else:
        assert fhc.verdict is Verdict.YES
    on_l1 = p == 0.505 and space == SpaceSpec.lq(1)  # the product condition fails
    assert sc.verdict is (Verdict.UNDETERMINED if on_l1 else Verdict.YES)
    assert sc.witness["step_residual"] <= 1e-13


def test_step_residuals_measure_each_cut():
    # the nine trailing entries of 1e-14 sum to at most 1e-13 sup|v| and are
    # dropped before the first step; W z_1 is compared with the whole z_0,
    # so the l1 residual holds their 9e-14 on top of the tail's 1.5e-14
    # (1.5e-14 alone without the cut)
    op = walk(Constant(0.75))
    v = FinSeq.from_values([1.0] + [1e-14] * 9, 2)
    _, residuals, _ = dynamics._checked_backward(op, v, 1, SpaceSpec.lq(1))
    assert 9e-14 < residuals[0] < 9e-14 + 2e-14


class TestSupercyclicityCertificate:
    def test_constant_transient_yes(self, walk_075):
        cert = supercyclicity_criterion_certificate(walk_075, SpaceSpec.c0())
        assert cert.verdict is Verdict.YES
        assert cert.witness["max_product"] < 1e-10

    def test_lq_yes(self, walk_075):
        cert = supercyclicity_criterion_certificate(walk_075, SpaceSpec.lq(2))
        assert cert.verdict is Verdict.YES

    def test_inhomogeneous_yes(self):
        op = walk(ListWithTail((0.6, 0.8), 0.7))
        cert = supercyclicity_criterion_certificate(op, SpaceSpec.c0())
        assert cert.verdict is Verdict.YES

    def test_symmetric_undetermined_kernel_trivial(self):
        cert = supercyclicity_criterion_certificate(walk(Constant(0.5)), SpaceSpec.lq(1))
        assert cert.verdict is Verdict.UNDETERMINED
        assert "kernel is trivial" in cert.reason

    def test_recurrent_undetermined(self):
        cert = supercyclicity_criterion_certificate(walk(Constant(0.3)), SpaceSpec.c0())
        assert cert.verdict is Verdict.UNDETERMINED

    def test_undetermined_when_window_cap_binds(self):
        # the kernel weights reach 1e-30 only far past the 12000-index cap
        cert = supercyclicity_criterion_certificate(walk(Constant(0.5006)), SpaceSpec.c0())
        assert cert.verdict is Verdict.UNDETERMINED
        assert "cap" in cert.reason

    def test_knife_edge_kernel_names_the_window_cap(self):
        # (1-p)/p = 1 - 4e-13: ker W is nontrivial, but its weights reach
        # 1e-30 only far past the window cap
        cert = supercyclicity_criterion_certificate(
            walk(Constant(0.5000000000001)), SpaceSpec.c0()
        )
        assert cert.verdict is Verdict.UNDETERMINED
        assert "kernel is trivial" not in cert.reason
        assert "cap=12000" in cert.reason

    def test_kernel_past_the_float_range_is_undetermined(self):
        # the kernel weights grow by 999 a step over the prefix and pass 1e308
        op = walk(ListWithTail((0.001,) * 240, 0.9))
        cert = supercyclicity_criterion_certificate(op, SpaceSpec.c0())
        assert cert.verdict is Verdict.UNDETERMINED
        assert cert.reason == "the kernel vector passes the float range (about 1.8e308)"
        assert "kernel_chain_log_factors" in cert.witness

    @pytest.mark.parametrize("p, n_max", [(0.55, 400), (0.51, 400), (0.6, 1000)])
    def test_backward_orbit_past_the_float_range_is_undetermined(self, p, n_max):
        # S^k target grows like (2p - 1)^-k and passes 1e308 before step n_max;
        # before, the checked backward orbit's OverflowError left the certificate
        cert = supercyclicity_criterion_certificate(walk(Constant(p)), SpaceSpec.c0(), n_max)
        assert cert.verdict is Verdict.UNDETERMINED
        assert cert.reason == "the preimage passes the float range (about 1.8e308)"
        assert "kernel_chain_log_factors" in cert.witness

    def test_yes_near_boundary(self):
        # backward norms blow up like 10^n here; the verdict must come
        # from the per-step identity, not the ill-conditioned round trip
        cert = supercyclicity_criterion_certificate(walk(Constant(0.55)), SpaceSpec.c0())
        assert cert.verdict is Verdict.YES
        assert cert.witness["step_residual"] < 1e-12
        assert cert.witness["backward_dynamic_range"] > 1e10

    def test_yes_survives_doubled_horizon(self, walk_075):
        a = supercyclicity_criterion_certificate(walk_075, SpaceSpec.c0(), n_max=12)
        b = supercyclicity_criterion_certificate(walk_075, SpaceSpec.c0(), n_max=24)
        assert a.verdict is b.verdict is Verdict.YES


@pytest.mark.parametrize(
    "certify, reads",
    [
        (lambda op: fhc_chaos_certificate(op, 3.0, SpaceSpec.c0()), 1),
        (lambda op: supercyclicity_criterion_certificate(op, SpaceSpec.c0()), 2),
    ],
    ids=["fhc", "supercyclicity"],
)
def test_certificates_solve_only_the_kernel_vectors_they_read(
    walk_075, monkeypatch, certify, reads
):
    counts = []
    inner = dynamics.kernel_basis

    def spy(*args, count=None, **kwargs):
        counts.append(count)
        return inner(*args, count=count, **kwargs)

    monkeypatch.setattr(dynamics, "kernel_basis", spy)
    assert certify(walk_075).verdict is Verdict.YES
    assert counts == [reads]


def _public_orbit(op, v, k, lam=None):
    """The backward orbit from public calls only: right_inverse, then * (1/lam)."""
    yield v.offset, v.values
    for _ in range(k):
        v = right_inverse(op, v)
        v = v if lam is None else v * (1.0 / lam)
        yield v.offset, v.values


_ORBIT_WALKS = {
    "const": Constant(0.75),
    "list": ListWithTail((0.6, 0.9, 0.7), 0.8),
    "periodic": Periodic((0.7, 0.85)),
}
_ORBIT_SPACES = {"c0": SpaceSpec.c0(), "l1": SpaceSpec.lq(1), "l2": SpaceSpec.lq(2)}


@pytest.mark.parametrize("space", _ORBIT_SPACES, ids=str)
@pytest.mark.parametrize("form", _ORBIT_WALKS)
@pytest.mark.parametrize("factor", [1.3, -1.4, 0.8 + 1.1j], ids=["pos", "neg", "complex"])
def test_fhc_backward_orbit_matches_the_public_orbit(monkeypatch, factor, form, space):
    # the float plane drops the signs of zeros for lam < 0 only, which no
    # norm reads: every witness, the backward norms bit for bit among them,
    # is the one the public right_inverse(z) * (1/lam) orbit gives
    op = walk(_ORBIT_WALKS[form])
    lam = factor * step_norm_bound(op)
    cert = fhc_chaos_certificate(op, lam, _ORBIT_SPACES[space])
    assert cert.verdict is Verdict.YES, cert.reason
    monkeypatch.setattr(dynamics, "_backward", _public_orbit)
    ref = fhc_chaos_certificate(op, lam, _ORBIT_SPACES[space])
    assert cert.witness["backward_norms"] == ref.witness["backward_norms"]
    assert repr(cert) == repr(ref)


@pytest.mark.parametrize("space", _ORBIT_SPACES, ids=str)
@pytest.mark.parametrize("form", _ORBIT_WALKS)
@pytest.mark.parametrize("factor", [1.3, -1.4, 0.8 + 1.1j], ids=["pos", "neg", "complex"])
def test_fhc_forward_orbit_matches_the_public_chain(monkeypatch, factor, form, space):
    # the forward check reads W^n s: every witness is the one the public
    # op.apply(y) chain gives
    op = walk(_ORBIT_WALKS[form])
    lam = factor * step_norm_bound(op)
    cert = fhc_chaos_certificate(op, lam, _ORBIT_SPACES[space])
    assert cert.verdict is Verdict.YES, cert.reason

    def public_chain(op, y, n):
        for y in apply_chain(op, y, n):
            yield y.offset, y.values

    monkeypatch.setattr(BandedOp, "_orbit", public_chain)
    ref = fhc_chaos_certificate(op, lam, _ORBIT_SPACES[space])
    assert cert.witness["forward_norms"] == ref.witness["forward_norms"]
    assert repr(cert) == repr(ref)


@pytest.mark.parametrize("space", _ORBIT_SPACES, ids=str)
@pytest.mark.parametrize("form", _ORBIT_WALKS)
def test_fhc_forward_witnesses_do_not_depend_on_the_phase_of_lam(form, space):
    # T^n s = lam^n W^n s: the check reads W^n s, and the witness scales its
    # norms by |lam|^n, so lam, -lam and a complex lam of the same modulus
    # give the same bits
    op = walk(_ORBIT_WALKS[form])
    turned = cmath.rect(1.3 * step_norm_bound(op), 0.9)
    lams = (abs(turned), -abs(turned), turned)
    certs = [fhc_chaos_certificate(op, lam, _ORBIT_SPACES[space]) for lam in lams]
    assert all(cert.verdict is Verdict.YES for cert in certs)
    for key in ("forward_norms", "forward_scaled_tail"):
        assert len({repr(cert.witness[key]) for cert in certs}) == 1


def _checked_reference(op, v, n, space, lam):
    """Norms and residuals of the backward loop's windows, from FinSeqs and
    the public apply: norm(lam W z_k - z_{k-1}) / norm(z_{k-1})."""
    zs = [FinSeq(op.lattice, lo, values) for lo, values in dynamics._backward(op, v, n, lam)]
    norms = [norm(z, space) for z in zs]
    residuals = []
    for k in range(1, n + 1):
        image = apply_entrywise(op, zs[k])
        image = image if lam is None else lam * image
        residuals.append(norm(image - zs[k - 1], space) / max(norms[k - 1], 1e-300))
    return norms, residuals, zs[-1]


def _outcome(check, *args):
    """The repr of a check's result, or the error it raises: a preimage past
    the float range raises."""
    try:
        return repr(check(*args))
    except OverflowError as exc:
        return f"OverflowError: {exc}"


_CHECKED_SPACES = {**_ORBIT_SPACES, "l1.5": SpaceSpec.lq(1.5), "l3": SpaceSpec.lq(3)}


@pytest.mark.parametrize("space", _CHECKED_SPACES, ids=str)
@pytest.mark.parametrize("form", _ORBIT_WALKS)
@pytest.mark.parametrize(
    "factor",
    [None, 1.3, -1.4, complex(1.2, -0.0), 0.8 + 1.1j],
    ids=["none", "pos", "neg", "minus-zero-imag", "complex"],
)
def test_checked_backward_matches_finseq_residuals(factor, form, space):
    # the float plane forms lam W z_k - z_{k-1} without FinSeqs; its norms
    # and residuals are those of the FinSeq arithmetic, bit for bit, also from
    # a zero start, one at index 0, and starts near 1e306 whose norms
    # overflow to inf without lam
    op = walk(_ORBIT_WALKS[form])
    lam = None if factor is None else factor * step_norm_bound(op)
    rng = random.Random(f"{factor}{form}{space}")
    starts = [random_finseq(rng, max_index=5) for _ in range(3)]
    starts.append(random_finseq(rng, max_index=5, complex_entries=True))
    starts += [FinSeq.zero(), FinSeq.from_values([1.5, 0.0, -0.7])]
    starts += [FinSeq.from_values([1e306]), FinSeq.from_values([0.0, 1e306, 1e306j], offset=2)]
    for v in starts:
        planes = {values.dtype for _, values in _backward(op, v, 3, lam)}
        real = not v.values.imag.any() and (factor is None or not complex(factor).imag)
        assert (np.dtype(np.float64) in planes) is (real or v.is_zero)
        args = op, v, 10, _CHECKED_SPACES[space], lam
        assert _outcome(dynamics._checked_backward, *args) == _outcome(_checked_reference, *args)


@pytest.mark.parametrize("space", _CHECKED_SPACES, ids=str)
@pytest.mark.parametrize("factor", [None, 1.3, -1.4], ids=["none", "pos", "neg"])
def test_checked_backward_on_a_run_that_leaves_the_float_plane(monkeypatch, factor, space):
    # no run of the loop was found that leaves the float plane partway and
    # completes (one that overflows raises), so a wrapped loop hands over
    # complex128 windows from step 3 on; the check then runs on complex128
    # and keeps every modulus of the FinSeq arithmetic
    op = walk(_ORBIT_WALKS["periodic"])
    lam = None if factor is None else factor * step_norm_bound(op)

    def leaving(*args):
        for k, (lo, values) in enumerate(_backward(*args)):
            yield lo, values if k < 3 else values.astype(np.complex128)

    monkeypatch.setattr(dynamics, "_backward", leaving)
    v = FinSeq.from_values([0.4, -1.2, 0.0, 2.5], offset=1)
    assert [z.dtype.char for _, z in leaving(op, v, 4, lam)] == list("DddDD")
    args = op, v, 10, _CHECKED_SPACES[space], lam
    assert repr(dynamics._checked_backward(*args)) == repr(_checked_reference(*args))


@pytest.mark.parametrize("space", _CHECKED_SPACES, ids=str)
@pytest.mark.parametrize(
    "factor", [None, -1.4, 0.8 + 1.1j, 1e10], ids=["none", "neg", "complex", "vanish"]
)
def test_checked_backward_on_long_and_vanishing_runs(factor, space):
    # 60 steps; lam = 1e10 * bound underflows the windows to empty ones after
    # 32 steps, where each residual compares an empty z_k with z_{k-1}
    op = walk(_ORBIT_WALKS["list"])
    lam = None if factor is None else factor * step_norm_bound(op)
    v = FinSeq.from_values([1.0, -0.5, 0.25j if factor == 0.8 + 1.1j else 0.25], offset=2)
    args = op, v, 60, _CHECKED_SPACES[space], lam
    assert repr(dynamics._checked_backward(*args)) == repr(_checked_reference(*args))


@pytest.mark.parametrize("factor", [1.0, 2.0], ids=["steady", "vanish"])
def test_checked_backward_measures_bounded_blocks_on_a_long_run(monkeypatch, factor):
    # each window of these runs starts one index right of the one before, and
    # at factor 2 they underflow to empty ones after about 1,070 steps; the
    # check measures its 4,001 rows of moduli in blocks of at most the cap, so
    # a 2,000-step run holds no more than a short one, where one grid for the
    # whole run would hold thousands of rows
    op = walk(Constant(0.9))
    v, lam = FinSeq.from_values([1.0, -0.5], offset=2), factor * step_norm_bound(op)
    blocks, row_norms = [], dynamics._row_norms

    def recording(mags, space):
        blocks.append(mags.shape)
        return row_norms(mags, space)

    monkeypatch.setattr(dynamics, "_row_norms", recording)
    norms, residuals, _ = dynamics._checked_backward(op, v, 2000, SpaceSpec.lq(1), lam)
    assert len(norms) == 2001 and len(residuals) == 2000 and (norms[-1] > 0) is (factor == 1.0)
    assert sum(rows for rows, _ in blocks) == 4001 and len(blocks) > 1
    assert max(rows * width for rows, width in blocks) <= dynamics._BLOCK_CELLS


@pytest.mark.parametrize("space", _CHECKED_SPACES, ids=str)
@pytest.mark.parametrize(
    "factor", [None, -1.4, 0.8 + 1.1j, 1e10], ids=["none", "neg", "complex", "vanish"]
)
def test_checked_backward_across_blocks(monkeypatch, factor, space):
    # 400 steps from a real start: complex128 z_0, then float64 windows (or
    # complex ones for a complex lam), empty ones from step 33 at 1e10;
    # measured in more than one block
    op = walk(_ORBIT_WALKS["periodic"])
    lam = None if factor is None else factor * step_norm_bound(op)
    v = FinSeq.from_values([0.4, -1.2, 0.0, 2.5], offset=1)
    shapes, padded = [], dynamics._padded
    monkeypatch.setattr(dynamics, "_padded", lambda rows: shapes.append(len(rows)) or padded(rows))
    args = op, v, 400, _CHECKED_SPACES[space], lam
    assert repr(dynamics._checked_backward(*args)) == repr(_checked_reference(*args))
    # a sup is measured one row at a time: padding would only copy the rows
    assert (sum(shapes), len(shapes) > 1) == ((801, True) if space != "c0" else (0, False))


def test_checked_backward_l1_norms_pass_the_float_range_to_inf():
    # the windows stay finite for 30 steps from 1e306, while their l1 norms
    # pass the float range at step 24; fsum raised there, now the norm is inf
    op, v = walk(Constant(0.9)), FinSeq.from_values([1e306])
    norms, residuals, _ = dynamics._checked_backward(op, v, 30, SpaceSpec.lq(1))
    assert math.isfinite(norms[23]) and norms[24:] == [math.inf] * 7
    assert len(residuals) == 30
    with pytest.raises(OverflowError, match="float range"):
        dynamics._checked_backward(op, v, 40, SpaceSpec.lq(1))


@pytest.mark.parametrize("space", _CHECKED_SPACES, ids=str)
@pytest.mark.parametrize(
    "op, x",
    [
        (walk(_ORBIT_WALKS["list"]), FinSeq.from_values([0.5, 0.0, -2.0, 1.25], offset=3)),
        (
            walk(Constant(0.3), Lattice.LINE),
            FinSeq.from_values([1.0, 0.0, 0.5j], offset=-2, lattice=Lattice.LINE),
        ),
        # halves of the smallest subnormal round to zero: empty windows from step 2
        (walk(Constant(0.5)), FinSeq.from_values([5e-324] * 600, offset=2)),
    ],
    ids=["half", "line-complex", "dies-out"],
)
def test_orbit_norms_across_blocks(monkeypatch, op, x, space):
    # 500 steps, measured in more than one block: a real start (complex128,
    # then float64 windows), a complex one, and one whose windows go empty;
    # the norms are those of the FinSeq chain
    calls, padded = [], dynamics._padded
    monkeypatch.setattr(dynamics, "_padded", lambda rows: calls.append(rows) or padded(rows))
    got = dynamics._orbit_norms(op, x, 500, _CHECKED_SPACES[space])
    want = [norm(y, _CHECKED_SPACES[space]) for y in apply_chain(op, x, 500)]
    assert repr(got) == repr(want) and (len(calls) > 1) is (space != "c0")


@pytest.mark.parametrize("space", _ORBIT_SPACES, ids=str)
@pytest.mark.parametrize("form", _ORBIT_WALKS)
def test_supercyclicity_backward_orbit_matches_the_public_orbit(monkeypatch, form, space):
    op = walk(_ORBIT_WALKS[form])
    cert = supercyclicity_criterion_certificate(op, _ORBIT_SPACES[space])
    assert cert.verdict is Verdict.YES, cert.reason
    monkeypatch.setattr(dynamics, "_backward", _public_orbit)
    ref = supercyclicity_criterion_certificate(op, _ORBIT_SPACES[space])
    for key in ("backward_norms", "step_residual"):
        assert cert.witness[key] == ref.witness[key]
    assert repr(cert) == repr(ref)


class TestObstruction:
    def test_constant_vector_is_fixed(self):
        op = walk(Constant(0.7))
        rep = constant_tail_obstruction(op, 1.0, FinSeq.zero(), n_max=30)
        for v in rep.probe_values:
            assert v == pytest.approx(1.0, abs=1e-12)
        assert rep.row_sum_deviation < 1e-12

    def test_perturbed_limit_and_floor(self):
        op = walk(Constant(0.7))
        rep = constant_tail_obstruction(op, 1.0, FinSeq.unit(0), n_max=200)
        assert abs(rep.probe_values[-1] - 1.0) < 1e-3
        assert rep.floor_ratio == pytest.approx(0.5)
        assert all(r >= rep.floor_ratio - 1e-12 for r in rep.probe_ratios)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            constant_tail_obstruction(walk(Constant(0.7)), 0.0, FinSeq.zero())

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, complex(1.0, -math.inf)])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            constant_tail_obstruction(walk(Constant(0.7)), alpha, FinSeq.unit(0))

    def test_lattice_mismatch_rejected(self):
        with pytest.raises(ValueError):
            constant_tail_obstruction(
                walk(Constant(0.7)), 1.0, FinSeq.unit(0, Lattice.LINE)
            )

    def test_negative_probe_index_only_on_the_line(self):
        with pytest.raises(ValueError, match="half-line indices are nonnegative"):
            constant_tail_obstruction(walk(Constant(0.7)), 1.0, FinSeq.unit(0), i_probe=-3)
        line = walk(Constant(0.7), Lattice.LINE)
        rep = constant_tail_obstruction(line, 1.0, FinSeq.unit(0, Lattice.LINE), i_probe=-3)
        assert rep.probe_index == -3


class TestLineBound:
    def test_bound_holds_on_random_vectors(self):
        rng = random.Random(41)
        for p in (0.6, 0.7, 0.9):
            op = walk(Constant(p), Lattice.LINE)
            factor = abs(1 - 2 * p)
            for _ in range(25):
                x = random_finseq(rng, Lattice.LINE, max_index=6)
                n = rng.randint(1, 15)
                rep = line_walk_lower_bound(op, x, n, SpaceSpec.c0())
                assert rep.holds
                assert rep.measured >= factor**n * rep.start_norm * (1 - 1e-10)

    def test_threshold_reported(self):
        op = walk(Constant(0.9), Lattice.LINE)
        rep = line_walk_lower_bound(op, FinSeq.unit(0, Lattice.LINE), 5, SpaceSpec.c0())
        assert rep.blocked_scaling_threshold == pytest.approx(1 / 0.8)

    def test_one_step_explicit(self):
        op = walk(Constant(0.9), Lattice.LINE)
        rep = line_walk_lower_bound(op, FinSeq.unit(0, Lattice.LINE), 1, SpaceSpec.c0())
        assert rep.measured == pytest.approx(0.9)
        assert rep.bound == pytest.approx(0.8)

    def test_half_probability_rejected(self):
        op = walk(Constant(0.5), Lattice.LINE)
        with pytest.raises(ValueError):
            line_walk_lower_bound(op, FinSeq.unit(0, Lattice.LINE), 3, SpaceSpec.c0())

    def test_half_line_rejected(self, walk_075):
        with pytest.raises(ValueError):
            line_walk_lower_bound(walk_075, FinSeq.unit(0), 3, SpaceSpec.c0())


class TestOrbitProbe:
    def test_probe_records_all_steps(self, walk_075):
        targets = [FinSeq.unit(0), FinSeq.unit(1)]
        rep = orbit_density_probe(walk_075, FinSeq.unit(0), targets, n_max=40)
        assert len(rep.orbit_norms) == 41
        assert len(rep.best) == 2
        d0, t0 = rep.best[0]
        assert d0 == 0.0 and t0 == 0  # the orbit starts at the target

    def test_projective_scale_invariance(self, walk_075):
        rng = random.Random(53)
        targets = [random_finseq(rng, max_index=4) for _ in range(2)]
        x = random_finseq(rng, max_index=4)
        a = orbit_density_probe(walk_075, x, targets, n_max=25, projective=True)
        b = orbit_density_probe(walk_075, x * 7.25, targets, n_max=25, projective=True)
        for (da, _), (db, _) in zip(a.best, b.best):
            assert da == pytest.approx(db, abs=1e-10)

    def test_projective_probe_raises_where_the_squares_sum_past_the_float_range(self, walk_075):
        # each |y_i|**2 is finite, their sum is not: the same error as for one
        # square past the range
        x = FinSeq.from_values([1e154, 0.0, 1e154])
        with pytest.raises(OverflowError, match="^the orbit's squared norm passes the float"):
            orbit_density_probe(walk_075, x, [FinSeq.unit(0)], n_max=40, projective=True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [[1e200], [1e200, 3e200], [0.0, 2e154]])
    def test_projective_probe_raises_where_a_squared_modulus_overflows(self, walk_075, x):
        # |y_i|**2 out of range ends the probe with one error and no warning,
        # instead of a scalar c = 0 that reports ||t|| as the distance
        x = FinSeq.from_values(x)
        with pytest.raises(OverflowError) as got:
            orbit_density_probe(walk_075, x, [FinSeq.unit(0)], n_max=3, projective=True)
        assert got.value.args == (
            "the orbit's squared norm passes the float range (about 1.8e308)",
        )
        rep = orbit_density_probe(walk_075, x * 1e-100, [FinSeq.unit(0)], n_max=3, projective=True)
        assert max(d for d, _ in rep.best) < norm(FinSeq.unit(0), SpaceSpec.c0())

    @pytest.mark.parametrize("threshold", [math.nan, -0.25, -math.inf])
    def test_probe_rejects_a_nan_or_negative_threshold(self, walk_075, threshold):
        # no distance is at most such a threshold: the probe ran and recorded no visits
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            orbit_density_probe(walk_075, FinSeq.unit(0), [FinSeq.unit(0)], threshold=threshold)

    def test_threshold_controls_visits(self, walk_075):
        rep = orbit_density_probe(
            walk_075, FinSeq.unit(0), [FinSeq.unit(0)], n_max=30, threshold=0.5
        )
        assert 0 in rep.visits[0]


class TestLowerDensity:
    def test_even_times_half(self):
        hits = list(range(2, 1001, 2))
        assert lower_density_estimate(hits, 1000) == pytest.approx(0.5, abs=0.01)

    def test_empty_is_zero(self):
        assert lower_density_estimate([], 100) == 0.0

    def test_all_times_is_one(self):
        assert lower_density_estimate(list(range(1, 101)), 100) == pytest.approx(1.0)

    def test_never_exceeds_one(self):
        assert lower_density_estimate([0, 1, 1, 2, 3], 3) <= 1.0

    def test_sparse_hits_low_density(self):
        hits = [2**k for k in range(10)]
        assert lower_density_estimate(hits, 512) < 0.05
