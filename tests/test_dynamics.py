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

from conftest import random_finseq


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
        cert = fhc_chaos_certificate(walk_075, 1.5, SpaceSpec.c0())
        assert cert.verdict is Verdict.NO
        assert "not a disproof" in cert.reason
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
        # the float ratio reads 0.9999999999999999, but sup |r_k| sits at
        # min p, so the exact test is |lam| (2 min p - 1) > 1, and it fails
        op = walk(Periodic((0.8841995512517797, 0.8443879956274093)))
        cert = fhc_chaos_certificate(op, 1.4518508378583153, SpaceSpec.c0())
        assert cert.witness["certified_ratio"] < 1.0
        assert cert.verdict is Verdict.NO
        assert "not a disproof" in cert.reason

    def test_ratio_rounding_below_one_names_the_exact_test(self):
        # the witness reads a float ratio below 1, so the reason must not
        # claim ratio >= 1: it names the exact test that blocked the route
        op = walk(Periodic((0.8841995512517797, 0.8443879956274093)))
        cert = fhc_chaos_certificate(op, 1.4518508378583153, SpaceSpec.c0())
        assert cert.witness["certified_ratio"] == 0.9999999999999999
        assert "certified ratio >= 1" not in cert.reason
        assert "|lam|^2 (2 min p - 1)^2 <= 1 exactly" in cert.reason
        assert "not a disproof" in cert.reason

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
        assert cert.verdict is Verdict.NO
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
    # a real lam runs the forward orbit on |lam|: the norms, and so every
    # witness, are those of the public lam * op.apply(y) chain
    op = walk(_ORBIT_WALKS[form])
    lam = factor * step_norm_bound(op)
    cert = fhc_chaos_certificate(op, lam, _ORBIT_SPACES[space])
    assert cert.verdict is Verdict.YES, cert.reason

    def public_chain(op, y, n, _lam):
        yield y.offset, y.values
        for _ in range(n):
            y = lam * op.apply(y)
            yield y.offset, y.values

    monkeypatch.setattr(BandedOp, "_orbit", public_chain)
    ref = fhc_chaos_certificate(op, lam, _ORBIT_SPACES[space])
    assert cert.witness["forward_norms"] == ref.witness["forward_norms"]
    assert repr(cert) == repr(ref)


def _checked_reference(op, v, n, space, lam):
    """Norms and residuals of the backward loop's windows, from FinSeqs and
    the public apply: norm(lam W z_k - z_{k-1}) / norm(z_{k-1})."""
    zs = [FinSeq(op.lattice, lo, values) for lo, values in _backward(op, v, n, lam)]
    norms = [norm(z, space) for z in zs]
    residuals = []
    for k in range(1, n + 1):
        image = op.apply(zs[k]) if lam is None else lam * op.apply(zs[k])
        residuals.append(norm(image - zs[k - 1], space) / max(norms[k - 1], 1e-300))
    return norms, residuals, zs[-1]


@pytest.mark.parametrize("space", _ORBIT_SPACES, ids=str)
@pytest.mark.parametrize("form", _ORBIT_WALKS)
@pytest.mark.parametrize(
    "factor",
    [None, 1.3, -1.4, complex(1.2, -0.0), 0.8 + 1.1j],
    ids=["none", "pos", "neg", "minus-zero-imag", "complex"],
)
def test_checked_backward_matches_finseq_residuals(factor, form, space):
    # the float plane forms lam W z_k - z_{k-1} without FinSeqs; its norms
    # and residuals are those of the FinSeq arithmetic, bit for bit
    op = walk(_ORBIT_WALKS[form])
    lam = None if factor is None else factor * step_norm_bound(op)
    rng = random.Random(f"{factor}{form}{space}")
    starts = [random_finseq(rng, max_index=5) for _ in range(3)]
    starts.append(random_finseq(rng, max_index=5, complex_entries=True))
    for v in starts:
        planes = {values.dtype for _, values in _backward(op, v, 3, lam)}
        real = not v.values.imag.any() and (factor is None or not complex(factor).imag)
        assert (np.dtype(np.float64) in planes) is real
        got = dynamics._checked_backward(op, v, 10, _ORBIT_SPACES[space], lam)
        want = _checked_reference(op, v, 10, _ORBIT_SPACES[space], lam)
        assert repr(got) == repr(want)


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

    def test_lattice_mismatch_rejected(self):
        with pytest.raises(ValueError):
            constant_tail_obstruction(
                walk(Constant(0.7)), 1.0, FinSeq.unit(0, Lattice.LINE)
            )


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
