"""Every input check of the library raises its own error and message, and
the branches that only unusual inputs reach give their stated answers."""

import math

import pytest

from walkdyn.classify import Classification, classify
from walkdyn.cli import _jsonable
from walkdyn.dynamics import (
    constant_tail_obstruction,
    line_walk_lower_bound,
    lower_density_estimate,
    orbit_density_probe,
)
from walkdyn.inverse_kernel import (
    kernel_basis,
    kernel_vector,
    kernel_window_for_tol,
    right_inverse,
    right_inverse_power,
)
from walkdyn.operators import Constant, ListWithTail, Periodic, make_walk, parse_pseq, pseq_text
from walkdyn.seqspace import FinSeq, Lattice, SpaceSpec
from walkdyn.spectral import eigen_sequence, left_kernel_vector, symmetric_dual_interval_check
from walkdyn.walk_oracle import WalkConfig, estimate_return_mass

_H, _L = Lattice.HALF_LINE, Lattice.LINE
_HALF = make_walk(_H, Constant(0.75))
_LINE = make_walk(_L, Constant(0.75))
_C0 = SpaceSpec.c0()
_CONFIG = WalkConfig(_H, Constant(0.6), seed=1, samples=4)

_CHECKS = {
    # parse_pseq and the forms
    "pseq-no-values": (lambda: parse_pseq("const: ; "), ValueError, "no values"),
    "pseq-bad-number": (lambda: parse_pseq("list:0.5,x;tail=0.7"), ValueError,
                        "bad probability sequence"),
    "pseq-option-without-eq": (lambda: parse_pseq("list:0.5;tail"), ValueError, "bad option"),
    "pseq-list-options": (lambda: parse_pseq("list:0.5;tail=0.7;step=2"), ValueError,
                          r"unknown options \['step'\]"),
    "pseq-periodic-options": (lambda: parse_pseq("periodic:0.5;start=1"), ValueError,
                              r"unknown options \['start'\]"),
    "periodic-empty": (lambda: Periodic(()), ValueError, "needs at least one value"),
    "pseq-text-type": (lambda: pseq_text(0.5), TypeError, "not a probability sequence"),
    "make-walk-pseq-type": (lambda: make_walk(_H, 0.5), TypeError, "not a probability sequence"),
    "make-walk-lattice-type": (lambda: make_walk("line", Constant(0.5)), TypeError,
                               "not a lattice"),
    "walk-config-type": (lambda: WalkConfig(_H, 0.5, seed=1, samples=4), TypeError,
                         "not a probability sequence"),
    "walk-config-seed": (lambda: WalkConfig(_H, Constant(0.5), seed=2**64, samples=4),
                         ValueError, "seed must fit in 64 bits"),
    # negative or zero sizes
    "obstruction-n-max": (lambda: constant_tail_obstruction(_HALF, 1.0, FinSeq.unit(0), 0, -1),
                          ValueError, "n_max must be nonnegative"),
    "orbit-probe-n-max": (lambda: orbit_density_probe(_HALF, FinSeq.unit(0), [FinSeq.unit(0)],
                                                      n_max=-1),
                          ValueError, "n_max must be nonnegative"),
    "kernel-vector-n-max": (lambda: kernel_vector(Constant(0.75), -1), ValueError,
                            "n_max must be nonnegative"),
    "eigen-sequence-n-max": (lambda: eigen_sequence(0.75, 0.5, -1), ValueError,
                             "n_max must be nonnegative"),
    "left-kernel-n-max": (lambda: left_kernel_vector(Constant(0.3), -1), ValueError,
                          "n_max must be nonnegative"),
    "right-inverse-power": (lambda: right_inverse_power(_HALF, FinSeq.unit(0), -1), ValueError,
                            "power must be nonnegative"),
    # before, a negative power gave row i of the identity
    "power-row": (lambda: _HALF.power_row(-1, 0), ValueError, "power must be nonnegative"),
    "line-bound-n": (lambda: line_walk_lower_bound(_LINE, FinSeq.unit(0, _L), -1, _C0),
                     ValueError, "n must be nonnegative"),
    "kernel-basis-n": (lambda: kernel_basis(_HALF, 0, 10), ValueError,
                       "the power must be at least 1"),
    "kernel-basis-window": (lambda: kernel_basis(_HALF, 2, 0), ValueError,
                            "window must be positive"),
    "lower-density-horizon": (lambda: lower_density_estimate([1, 2], 0), ValueError,
                              "horizon must be at least 1"),
    "return-mass-horizon": (lambda: estimate_return_mass(_CONFIG, -1, 0), ValueError,
                            "horizon must be nonnegative"),
    # inputs of the wrong kind
    "classify-line-list": (lambda: classify(ListWithTail((0.6,), 0.7), lattice=_L), ValueError,
                           "implemented for constant p only"),
    "line-bound-list": (lambda: line_walk_lower_bound(make_walk(_L, Periodic((0.6, 0.7))),
                                                      FinSeq.unit(0, _L), 3, _C0),
                        ValueError, "needs a constant jump probability"),
    "line-bound-half-line-vector": (
        lambda: line_walk_lower_bound(_LINE, FinSeq.unit(0), 3, _C0), ValueError,
        "the vector must live on the line",
    ),
    "inverse-line-operator": (lambda: right_inverse(_LINE, FinSeq.unit(0, _L)), ValueError,
                              "applies to half-line operators"),
    "inverse-line-vector": (lambda: right_inverse(_HALF, FinSeq.unit(0, _L)), ValueError,
                            "the vector must live on the half-line"),
}


@pytest.mark.parametrize("call, error, message", _CHECKS.values(), ids=_CHECKS.keys())
def test_bad_input_raises_its_own_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


_TOL_CALLS = {
    # before, tol=2 gave the zero vector as the second basis vector
    "kernel-basis": lambda tol: kernel_basis(_HALF, 2, 50, tol=tol),
    # before, tol=-1 ran at the least positive threshold (support 1..1357),
    # and a nan tol blamed the jump probabilities
    "right-inverse": lambda tol: right_inverse(_HALF, FinSeq.unit(0), tol=tol),
    "right-inverse-power": lambda tol: right_inverse_power(_HALF, FinSeq.unit(0), 2, tol=tol),
    # before, tol=-1 answered "kernel weights do not decay"
    "kernel-window": lambda tol: kernel_window_for_tol(Constant(0.75), tol),
}


@pytest.mark.parametrize("tol", [2.0, 1.0, 0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", _TOL_CALLS.values(), ids=_TOL_CALLS.keys())
def test_tol_outside_the_unit_interval_raises(call, tol):
    with pytest.raises(ValueError, match="tol must lie strictly between 0 and 1"):
        call(tol)


def test_jsonable_writes_nan_as_text():
    assert _jsonable([math.nan, math.inf, -math.inf, 1.5]) == ["nan", "inf", "-inf", 1.5]


def test_series_route_finds_a_balanced_tail_null_recurrent():
    # the head drives the partial sums of both series past 1e6
    pseq = parse_pseq("list:0.5,0.001,0.001,0.999,0.999,0.999,0.999;tail=0.5")
    v = classify(pseq, horizon=200, method="series")
    assert (v.verdict, v.method) == (Classification.NULL_RECURRENT, "series-policy")
    assert classify(pseq).verdict is Classification.NULL_RECURRENT


def test_symmetric_check_does_not_certify_outside_the_open_interval():
    rep = symmetric_dual_interval_check(n_max=20, lambdas=(-1.0, 0.5, 1.0, 2.5))
    assert rep.certified == (False, True, False, False)
    assert not rep.all_certified and rep.conclusion is None


@pytest.mark.parametrize("lattice", list(Lattice))
def test_transpose_loop_on_the_zero_sequence_and_at_power_zero(lattice):
    op = make_walk(lattice, ListWithTail((0.3, 0.8), 0.6, 0 if lattice is _H else -2))
    for y in (FinSeq.zero(lattice), FinSeq(lattice, 2, [0.0, -0.0])):
        got = op.apply_transpose(y)
        assert (got.offset, got.values.tobytes()) == (0, b"")
    got = op.power_row(0, 3)
    assert (got.offset, got.values.tobytes()) == (3, FinSeq.unit(3).values.tobytes())
