"""Acceptance gate: one test per headline guarantee, tolerances stated inline.

Each test is independent and deterministic (fixed seeds) and finishes in
well under a minute, so ``pytest -v tests/test_acceptance.py`` reads as a
pass/fail scorecard for the package.
"""

import collections
import math
import random
from fractions import Fraction

import pytest

from walkdyn.classify import Classification, classify
from walkdyn.dynamics import (
    Verdict,
    constant_tail_obstruction,
    fhc_chaos_certificate,
    line_walk_lower_bound,
)
from walkdyn.inverse_kernel import (
    kernel_basis,
    kernel_vector,
    kernel_window_for_tol,
    right_inverse,
)
from walkdyn.operators import Constant, Periodic, make_walk
from walkdyn.seqspace import FinSeq, Lattice, SpaceSpec, norm
from walkdyn.spectral import (
    dual_point_spectrum_report,
    point_spectrum_probe,
    symmetric_dual_interval_check,
)
from walkdyn.walk_oracle import WalkConfig, estimate_transition

from conftest import random_finseq, random_pseq


def test_right_inverse_identity_randomized():
    # 200 (pseq, v) pairs: applying the walk to the preimage returns v
    # to 1e-10 in sup norm.  Half constant, half inhomogeneous; every
    # sequence keeps the probabilities above one half so the preimage
    # tail decays.
    rng = random.Random(11)
    for trial in range(200):
        if trial % 2 == 0:
            pseq = Constant(rng.uniform(0.551, 0.949))
        else:
            pseq = random_pseq(rng, lo=0.551, hi=0.949)
        op = make_walk(Lattice.HALF_LINE, pseq)
        v = random_finseq(rng, max_index=10)
        if v.is_zero:
            v = FinSeq.unit(0)
        u = right_inverse(op, v)
        assert (op.apply(u) - v).sup_abs() < 1e-10


def test_right_inverse_decay_bound():
    # sup and l^q norms of the n-fold preimage stay below
    # (2p-1)^{-n} * ||v|| * (1 + 1e-10), and the first n coordinates
    # vanish exactly, for p in {0.6, 0.75, 0.9} and n up to 30.
    rng = random.Random(23)
    spaces = [SpaceSpec.c0(), SpaceSpec.lq(1), SpaceSpec.lq(2)]
    for p in (0.6, 0.75, 0.9):
        op = make_walk(Lattice.HALF_LINE, Constant(p))
        rate = 1.0 / (2.0 * p - 1.0)
        for _ in range(3):
            v = random_finseq(rng, max_index=8)
            if v.is_zero:
                v = FinSeq.unit(0)
            base = {s: norm(v, s) for s in spaces}
            cur = v
            for n in range(1, 31):
                cur = right_inverse(op, cur)
                for s in spaces:
                    assert norm(cur, s) <= rate**n * base[s] * (1 + 1e-10)
                assert all(cur.at(k) == 0.0 for k in range(n))


def test_kernel_basis_membership():
    # every kernel-basis vector is annihilated by the n-th power to 1e-8
    # across the computed window, and the leading n-by-n minor is the
    # identity, for p in {0.6, 0.75, 0.9} and n up to 5.
    for p in (0.6, 0.75, 0.9):
        pseq = Constant(p)
        op = make_walk(Lattice.HALF_LINE, pseq)
        for n in range(1, 6):
            window = kernel_window_for_tol(pseq, 1e-12) + n
            basis = kernel_basis(op, n, window, tol=1e-12)
            assert len(basis) == n
            for k, vec in enumerate(basis):
                for j in range(n):
                    assert vec.at(j) == (1.0 if j == k else 0.0)
                image = op.power_apply(n, vec)
                residual = max(
                    (abs(val) for idx, val in image.items() if idx < window),
                    default=0.0,
                )
                assert residual < 1e-8


def test_transfer_matrix_spectrum_grid():
    # root product (1-p)/p, the companion matrix's determinant, to 1e-12
    # on a mixed real/complex grid, larger root first; for
    # p = 0.75 every real lam in [0, 1) is a certified c0 eigenvalue;
    # for p in {0.3, 0.5} nothing is certified anywhere on |lam| <= 2.
    grid = [complex(-2.0 + 0.1 * k, 0.0) for k in range(41)]
    grid += [
        r * complex(math.cos(t), math.sin(t))
        for r in (0.5, 1.0, 1.5, 2.0)
        for t in [math.pi * j / 6 for j in range(12)]
    ]
    for p in (0.3, 0.5, 0.6, 0.75, 0.9):
        for lam in grid:
            ev = point_spectrum_probe(p, lam, SpaceSpec.c0()).evidence
            assert abs(ev["alpha"] * ev["beta"] - (1.0 - p) / p) <= 1e-12
            assert ev["alpha_modulus"] >= ev["beta_modulus"]

    for k in range(20):
        lam = 0.05 * k
        verdict = point_spectrum_probe(0.75, lam, SpaceSpec.c0())
        assert verdict.member is Verdict.YES, f"lam={lam}"

    for p in (0.3, 0.5):
        for space in (SpaceSpec.c0(), SpaceSpec.lq(2)):
            for lam in grid:
                verdict = point_spectrum_probe(p, lam, space)
                assert verdict.member is not Verdict.YES, f"p={p} lam={lam}"


def _detailed_balance_class(cycle):
    # the invariant measure has pi_{n+1}/pi_n = p_n/(1-p_{n+1}); over one
    # cycle of the stated values that ratio R is < 1 for a positive
    # recurrent walk, 1 for a null recurrent and > 1 for a transient one
    stated = [Fraction(repr(p)) for p in cycle]
    ratio = math.prod(p / (1 - q) for p, q in zip(stated, stated[1:] + stated[:1]))
    if ratio < 1:
        return Classification.POSITIVE_RECURRENT
    return Classification.NULL_RECURRENT if ratio == 1 else Classification.TRANSIENT


def test_classification_exactness_and_periodic_fast_path():
    # constant walks classify exactly; the periodic closed form agrees with
    # detailed balance in Fractions on 200 random periodic sequences, half
    # of them decimal cycles whose values are mirrored about 1/2 so that
    # the cycle ratio is exactly 1 or next to it.
    assert classify(Constant(0.3)).verdict is Classification.POSITIVE_RECURRENT
    assert classify(Constant(0.5)).verdict is Classification.NULL_RECURRENT
    assert classify(Constant(0.7)).verdict is Classification.TRANSIENT

    rng = random.Random(37)
    seen = collections.Counter()
    for trial in range(200):
        if trial % 2:
            vals = tuple(rng.uniform(0.15, 0.85) for _ in range(rng.randint(1, 6)))
        else:
            digits = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1500, 8500)
                digits += [d, 10000 - d + rng.choice((-1, 0, 0, 1))]
            if rng.random() < 0.3:
                digits.append(rng.randint(1500, 8500))
            rng.shuffle(digits)
            vals = tuple(d / 10000 for d in digits)
        fast = classify(Periodic(vals))
        assert fast.method.startswith("exact")
        assert fast.verdict is _detailed_balance_class(vals), f"pseq={vals}"
        seen[fast.verdict] += 1
    assert set(seen) == {
        Classification.POSITIVE_RECURRENT,
        Classification.NULL_RECURRENT,
        Classification.TRANSIENT,
    }, seen


def test_oracle_matches_power_entry():
    # Monte Carlo transition estimates with 1e5 seeded samples land
    # within 4 standard errors of the exact banded power entry in at
    # least 99 of 100 random (p, n, i, j) tuples.
    rng = random.Random(71)
    hits = 0
    for trial in range(100):
        p = rng.uniform(0.2, 0.9)
        n = rng.randint(1, 15)
        i = rng.randint(0, 4)
        j = rng.randint(max(0, i - n), i + n)
        op = make_walk(Lattice.HALF_LINE, Constant(p))
        exact = op.power_entry(n, i, j)
        cfg = WalkConfig(
            lattice=Lattice.HALF_LINE,
            pseq=Constant(p),
            seed=1000 + trial,
            samples=100_000,
        )
        estimate, stderr = estimate_transition(cfg, n, i, j)
        if abs(estimate - exact) <= 4.0 * stderr:
            hits += 1
    assert hits >= 99, f"only {hits}/100 within 4 standard errors"


def test_line_walk_lower_bound():
    # two-sided walk, no holding: ||Wbar^n x|| >= |1-2p|^n ||x|| up to
    # 1e-10 relative slack, for p in {0.6, 0.7, 0.9}, 100 random x each.
    rng = random.Random(97)
    for p in (0.6, 0.7, 0.9):
        op = make_walk(Lattice.LINE, Constant(p))
        factor = abs(1.0 - 2.0 * p)
        for _ in range(100):
            x = random_finseq(rng, Lattice.LINE, max_index=6)
            if x.is_zero:
                x = FinSeq.unit(0, Lattice.LINE)
            n = rng.randint(1, 20)
            rep = line_walk_lower_bound(op, x, n, SpaceSpec.c0())
            assert rep.holds
            assert rep.measured >= factor**n * x.sup_abs() * (1 - 1e-10)


def test_constant_tail_obstruction_limits():
    # p = 0.7 and y = 1 + e0: the probe coordinate returns to 1 within
    # 1e-3 by step 200, and the projective ratio never drops below
    # |alpha| / ||y||_sup = 1/2.
    op = make_walk(Lattice.HALF_LINE, Constant(0.7))
    rep = constant_tail_obstruction(op, 1.0, FinSeq.unit(0), n_max=200)
    assert rep.floor_ratio == 0.5
    assert abs(rep.probe_values[-1] - 1.0) < 1e-3
    assert all(r >= 0.5 for r in rep.probe_ratios)


def test_fhc_certificate_thresholds():
    # scaled walk at p = 0.75: lam = 3 certifies yes with geometric
    # ratio 2/3 to 1e-6; lam = 1.5 sits under the threshold 1/(2p-1)
    # and is refused by the criterion without claiming a disproof, so it
    # is undetermined.
    op = make_walk(Lattice.HALF_LINE, Constant(0.75))
    yes = fhc_chaos_certificate(op, 3.0, SpaceSpec.c0())
    assert yes.verdict is Verdict.YES
    assert abs(yes.witness["certified_ratio"] - 2.0 / 3.0) < 1e-6

    blocked = fhc_chaos_certificate(op, 1.5, SpaceSpec.c0())
    assert blocked.verdict is Verdict.UNDETERMINED
    assert "not a disproof" in blocked.reason


def test_dual_eigenvector_reports():
    # p = 0.25: the alternating-weight functional is summable, so 0 is
    # a dual eigenvalue and the non-hypercyclicity conclusion is
    # emitted; p = 1/2: every lam on the default symmetric grid inside
    # (-0.95, 0.95) certifies a bounded eigenvector candidate.
    rep = dual_point_spectrum_report(Constant(0.25), SpaceSpec.c0())
    assert rep.zero_is_dual_eigenvalue is Verdict.YES
    assert rep.conclusion is not None and "hypercyclic" in rep.conclusion

    interval = symmetric_dual_interval_check()
    assert interval.all_certified
    assert interval.symmetric
    assert max(abs(l) for l in interval.lambdas) <= 0.95 + 1e-12
    assert min(interval.lambdas) < 0 < max(interval.lambdas)


def test_weight_sequence_consistency():
    # the kernel weights equal the pair products of (1-p)/p to 1e-12, for
    # 50 random probability sequences and n <= 40.
    rng = random.Random(131)
    for _ in range(50):
        pseq = random_pseq(rng, lo=0.15, hi=0.85)
        w = [1.0, (1.0 - pseq.at(0)) / pseq.at(0)]
        for k in range(2, 41):
            w.append(w[k - 2] * (1.0 - pseq.at(k - 1)) / pseq.at(k - 1))
        weights = [abs(u) for u in kernel_vector(pseq, 40)]
        assert weights == pytest.approx(w, rel=1e-12, abs=1e-12)
