import cmath
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from walkdyn.inverse_kernel import kernel_vector
from walkdyn.operators import Constant, ListWithTail, Periodic, make_walk
from walkdyn.classify import Verdict
from walkdyn.seqspace import FinSeq, Lattice, SpaceSpec
from walkdyn.spectral import (
    certified_disk_radius,
    dual_point_spectrum_report,
    eigen_sequence,
    left_kernel_vector,
    point_spectrum_probe,
    symmetric_dual_interval_check,
)

from conftest import random_pseq

probs = st.floats(min_value=0.05, max_value=0.95)
lams = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@given(probs, lams)
@settings(max_examples=150, deadline=None)
def test_transfer_determinant_invariant(p, lam):
    # the root product is the determinant (1-p)/p of the companion matrix
    # [[lam/p, (p-1)/p], [1, 0]], for every lam; the larger root comes first
    ev = point_spectrum_probe(p, lam, SpaceSpec.c0()).evidence
    a, b = ev["alpha"], ev["beta"]
    assert a * b == pytest.approx((1 - p) / p, rel=1e-9, abs=1e-9)
    assert abs(a) >= abs(b)
    assert (ev["alpha_modulus"], ev["beta_modulus"]) == (abs(a), abs(b))


@given(probs, lams)
@settings(max_examples=100, deadline=None)
def test_eigen_sequence_satisfies_recurrence(p, lam):
    q = eigen_sequence(p, lam, 40)
    assert q[0] == 1.0
    # boundary row: lam q0 = (1-p) q0 + p q1
    assert lam * q[0] == pytest.approx((1 - p) * q[0] + p * q[1], rel=1e-12, abs=1e-12)
    for n in range(1, len(q) - 1):
        lhs = lam * q[n]
        rhs = (1 - p) * q[n - 1] + p * q[n + 1]
        scale = max(1.0, abs(q[n - 1]), abs(q[n]), abs(q[n + 1]))
        assert abs(lhs - rhs) <= 1e-11 * scale


def test_membership_inside_disk_yes():
    # note 0.5j would sit exactly on the boundary curve: the imaginary
    # axis binds at |t| = 2p-1
    for lam in (0.0, 0.3, 0.7, 0.95, 0.4j, -0.8):
        v = point_spectrum_probe(0.75, lam, SpaceSpec.c0())
        assert v.member is Verdict.YES
        assert v.evidence["max_modulus"] < 1.0


def test_membership_no_for_recurrent_p():
    grid = [x / 10 for x in range(-20, 21, 4)]
    for p in (0.3, 0.5):
        for re in grid:
            for im in (0.0, 0.5):
                v = point_spectrum_probe(p, complex(re, im), SpaceSpec.c0())
                assert v.member is not Verdict.YES
                v = point_spectrum_probe(p, complex(re, im), SpaceSpec.lq(2))
                assert v.member is not Verdict.YES


def test_unit_circle_pair_linf_yes():
    # conjugate pair exactly on the unit circle only at p = 1/2
    v = point_spectrum_probe(0.5, 0.6, SpaceSpec.linf())
    assert v.member is Verdict.YES
    assert v.evidence["unit_circle_pair"] is True
    v = point_spectrum_probe(0.5, 0.6, SpaceSpec.c0())
    assert v.member is Verdict.NO


def test_defective_unit_cases():
    # repeated root on the unit circle: only (1/2, ±1); growth coefficient
    # vanishes at lam = 1 (constant eigenvector) but not at lam = -1
    v = point_spectrum_probe(0.5, 1.0, SpaceSpec.linf())
    assert v.evidence["defective"] is True
    assert v.member is Verdict.YES
    v = point_spectrum_probe(0.5, 1.0, SpaceSpec.c())
    assert v.member is Verdict.YES
    v = point_spectrum_probe(0.5, 1.0, SpaceSpec.c0())
    assert v.member is Verdict.NO
    v = point_spectrum_probe(0.5, -1.0, SpaceSpec.linf())
    assert v.evidence["defective"] is True
    assert v.member is Verdict.NO


def test_band_gives_undetermined():
    # max modulus within the caution band around 1
    p = 0.75
    # real root hits modulus 1 at lam = 1 + (1-p) = sqrt disc case; pick the
    # boundary lam where alpha = 1: p*1 - lam + (1-p) = 0 -> lam = 1
    v = point_spectrum_probe(p, 1.0 + 1e-12, SpaceSpec.c0())
    assert v.member is Verdict.UNDETERMINED


def test_certified_disk_radius_values():
    r = certified_disk_radius(0.75, SpaceSpec.c0())
    assert r == pytest.approx(0.5, abs=1e-4)
    r9 = certified_disk_radius(0.9, SpaceSpec.c0())
    assert r9 == pytest.approx(0.8, abs=1e-4)
    assert certified_disk_radius(0.5, SpaceSpec.c0()) == 0.0


@pytest.mark.parametrize("n_angles", [0, -3])
def test_certified_disk_radius_needs_an_angle(n_angles):
    # with no angle on the grid every radius passed: 2.0 for p = 0.75, whose
    # certified radius is 0.5
    with pytest.raises(ValueError, match="n_angles must be at least 1"):
        certified_disk_radius(0.75, SpaceSpec.c0(), n_angles=n_angles)


@pytest.mark.parametrize("band", [-1.0, -1e-12, math.nan])
def test_negative_band_rejected(band):
    # a band of -1 decided max_modulus 1.816 as a member of c0 at lam = 1.5,
    # and certified the radius 1.375 where the default band gives 0.49999905
    with pytest.raises(ValueError, match="band must be nonnegative"):
        point_spectrum_probe(0.75, 1.5, SpaceSpec.c0(), band=band)
    with pytest.raises(ValueError, match="band must be nonnegative"):
        certified_disk_radius(0.75, SpaceSpec.c0(), band=band)


def test_kernel_vector_is_eigenvector():
    rng = random.Random(12)
    for _ in range(15):
        pseq = random_pseq(rng, lo=0.2, hi=0.9)
        op = make_walk(Lattice.HALF_LINE, pseq)
        u = kernel_vector(pseq, 30)
        x = FinSeq.from_values(u[:25], lattice=Lattice.HALF_LINE)
        y = op.apply(x)
        # rows 0..22 see fully determined inputs
        for i in range(23):
            assert abs(y.at(i)) <= 1e-10 * max(1.0, max(abs(t) for t in u))


def test_left_kernel_vector_solves_dual_rows():
    rng = random.Random(14)
    for _ in range(10):
        pseq = random_pseq(rng, lo=0.2, hi=0.8)
        op = make_walk(Lattice.HALF_LINE, pseq)
        u = left_kernel_vector(pseq, 25)
        # column j of W pairs (1-p_{j+1}) holding... use apply_transpose
        x = FinSeq.from_values(u[:20], lattice=Lattice.HALF_LINE)
        y = op.apply_transpose(x)
        scale = max(1.0, max(abs(t) for t in u[:20]))
        for j in range(18):
            assert abs(y.at(j)) <= 1e-9 * scale


def test_left_kernel_vector_reads_p_only_up_to_the_cut():
    tracemalloc.start()
    try:
        u = left_kernel_vector(Constant(0.999), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(u) == 188  # the chains pass 1e280 at index 188
    assert peak < 2**20  # a read of p_0..p_{10^6} would take tens of MB


def test_dual_report_summable_case():
    rep = dual_point_spectrum_report(Constant(0.25), SpaceSpec.c0())
    assert rep.zero_is_dual_eigenvalue is Verdict.YES
    assert "no nonzero scalar multiple" in rep.conclusion
    assert len(rep.coords) > 0


def test_dual_report_growing_case():
    rep = dual_point_spectrum_report(Constant(0.75), SpaceSpec.c0())
    assert rep.zero_is_dual_eigenvalue is Verdict.NO
    assert rep.conclusion is None


def test_dual_report_l1_boundary():
    # p = 1/2: chains are flat, summability fails but boundedness holds
    rep = dual_point_spectrum_report(Constant(0.5), SpaceSpec.lq(1))
    assert rep.zero_is_dual_eigenvalue is Verdict.YES
    rep = dual_point_spectrum_report(Constant(0.5), SpaceSpec.c0())
    assert rep.zero_is_dual_eigenvalue is Verdict.NO


@pytest.mark.parametrize(
    "pseq, space, member",
    [
        # the dual chains grow by p/(1-p) = 1 + 4e-13 every two indices
        (Constant(0.5000000000001), SpaceSpec.lq(1), Verdict.NO),
        # ... and here they shrink by as much: summable
        (Periodic((0.4999999999999,)), SpaceSpec.c0(), Verdict.YES),
    ],
    ids=["l1-growing", "c0-decaying"],
)
def test_dual_report_decided_on_the_stated_values(pseq, space, member):
    rep = dual_point_spectrum_report(pseq, space, n_max=12)
    assert rep.zero_is_dual_eigenvalue is member
    grows = abs(rep.coords[-1]) > abs(rep.coords[0])
    assert grows is (member is Verdict.NO)


def test_dual_report_rejects_linf():
    with pytest.raises(ValueError):
        dual_point_spectrum_report(Constant(0.25), SpaceSpec.linf())


def test_symmetric_interval_check_default_grid():
    rep = symmetric_dual_interval_check(n_max=150)
    assert rep.all_certified
    assert rep.symmetric
    assert len(rep.lambdas) == 39
    assert all(rep.certified)
    assert "supercyclic" in rep.conclusion


@pytest.mark.parametrize("n_max", [0, -2])
def test_symmetric_interval_check_needs_a_coordinate(n_max):
    # n_max = 0 read q[1] of a one-entry candidate and raised IndexError
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        symmetric_dual_interval_check(n_max=n_max)


@pytest.mark.parametrize(
    "lambdas", [(0.5,), (0.5, 0.5), (0.0, -0.0)], ids=["one", "twice", "signed-zeros"]
)
def test_symmetric_conclusion_needs_two_distinct_lambdas(lambdas):
    # the conclusion stood on one dual eigenvalue, which rules nothing out
    rep = symmetric_dual_interval_check(n_max=10, lambdas=lambdas)
    assert rep.all_certified and rep.conclusion is None
    two = symmetric_dual_interval_check(n_max=10, lambdas=(0.5, -0.5))
    assert "supercyclic" in two.conclusion


def test_symmetric_interval_check_rejects_an_empty_grid():
    # all() of no lam held, and the conclusion was stated on nothing
    with pytest.raises(ValueError, match="empty"):
        symmetric_dual_interval_check(lambdas=())


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_symmetric_interval_check_rejects_a_non_finite_lam(lam):
    # it was reported as one more uncertified lam; point_spectrum_probe raises here too
    with pytest.raises(ValueError, match="lam must be finite"):
        symmetric_dual_interval_check(n_max=10, lambdas=(0.5, lam))


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(0.5, math.inf), complex(math.nan, 0)])
def test_point_spectrum_probe_rejects_a_non_finite_lam(lam):
    # it answered undetermined with nan evidence
    with pytest.raises(ValueError, match="lam must be finite"):
        point_spectrum_probe(0.75, lam, SpaceSpec.c0())


def test_symmetric_interval_check_small_grid():
    rep = symmetric_dual_interval_check(n_max=100, lambdas=(-0.5, 0.0, 0.5))
    assert rep.all_certified
    assert rep.detail["sup_q"] and max(rep.detail["sup_q"]) < math.inf
