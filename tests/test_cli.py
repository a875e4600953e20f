import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walkdyn.cli import main, parse_grid, parse_vector
from walkdyn.seqspace import Lattice


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own rejections
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestEnvelope:
    def test_shape(self, capsys):
        code, doc = run_json(capsys, "classify", "--pseq", "const:0.7")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["tool"]["name"] == "walkdyn"
        assert doc["config"]["subcommand"] == "classify"
        assert "result" in doc

    def test_argv_round_trip(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--mode", "radius", "--p", "0.8")
        assert code == 0
        argv = json.loads(out)["config"]["argv"]
        code2, out2, _ = run(capsys, *argv)
        assert code2 == 0
        assert out2 == out


class TestClassify:
    @pytest.mark.parametrize(
        "pseq,verdict",
        [
            ("const:0.7", "Transient"),
            ("const:0.3", "PositiveRecurrent"),
            ("const:0.5", "NullRecurrent"),
        ],
    )
    def test_constant_verdicts(self, capsys, pseq, verdict):
        code, doc = run_json(capsys, "classify", "--pseq", pseq)
        assert code == 0
        assert doc["result"]["verdict"] == verdict

    def test_series_method_evidence_trimmed(self, capsys):
        code, doc = run_json(
            capsys, "classify", "--pseq", "const:0.7", "--method", "series"
        )
        assert code == 0
        ev = doc["result"]["evidence"]["transience_series"]
        assert "partial_sums_head" in ev and len(ev["partial_sums_head"]) <= 8


class TestSpectrum:
    def test_single_point(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--p", "0.75", "--lam", "0.5", "--space", "c0"
        )
        assert code == 0
        row = doc["result"]["rows"][0]
        assert row["member"] == "yes"
        assert row["lam"] == [0.5, 0.0]

    def test_grid_counts(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--p", "0.3", "--lam-grid=0:0.9:5"
        )
        assert code == 0
        assert doc["result"]["counts"]["yes"] == 0

    def test_grid_csv_headers(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--p",
            "0.75",
            "--lam-grid=0:0.9:4",
            "--format",
            "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.split(",")[:2] == ["lam_re", "lam_im"]
        assert len(out.splitlines()) == 5

    def test_dual_mode(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--mode", "dual", "--pseq", "const:0.25"
        )
        assert code == 0
        res = doc["result"]
        assert res["zero_is_dual_eigenvalue"] == "yes"
        assert "hypercyclic" in res["conclusion"]

    def test_radius_mode(self, capsys):
        code, doc = run_json(capsys, "spectrum", "--mode", "radius", "--p", "0.75")
        assert code == 0
        assert doc["result"]["radius_lower_estimate"] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("tol", ["1e-16", "1e-17", "1e-300"])
    def test_radius_search_stops_at_the_float_spacing(self, tol):
        # a tol below the bracket's float spacing bisected forever; in a
        # subprocess, so a search that never ends fails by its timeout
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["spectrum", "--mode", "radius", "--p", "0.75", "--angles", "2", "--tol", tol]
        proc = subprocess.run(
            [sys.executable, "-m", "walkdyn.cli", *argv], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        r = json.loads(proc.stdout)["result"]["radius_lower_estimate"]
        assert r == 0.9999999949999999  # 1 - band / 2, to the last float of the bracket

    def test_symmetric_conclusion_needs_two_lambdas(self, capsys):
        # one certified lam is one dual eigenvalue, which rules nothing out
        argv = ["spectrum", "--mode", "symmetric", "--lam-grid=0.5:0.5:1", "--n-max", "10"]
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["result"]["all_certified"] is True and doc["result"]["conclusion"] is None

    @pytest.mark.parametrize("grid", ["nan:0.5:3", "-1e308:1e308:3", "inf:0:1"])
    @pytest.mark.parametrize("mode", ["grid", "symmetric"])
    def test_non_finite_grid_points_exit_2(self, capsys, mode, grid):
        # the symmetric mode listed nan and inf lambdas as uncertified, exit 0;
        # b - a overflowing past the float range made the finite ends nan and inf
        argv = ["spectrum", "--mode", mode, f"--lam-grid={grid}"]
        code, out, err = run(capsys, *argv, *(["--p", "0.75"] if mode == "grid" else []))
        assert (code, out, err) == (2, "", f"error: grid points must be finite: {grid!r}\n")

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "1+nanj"])
    def test_non_finite_lam_exit_2(self, capsys, lam):
        # an undetermined row of nan evidence exited 0
        code, out, err = run(capsys, "spectrum", "--p", "0.75", f"--lam={lam}")
        assert (code, out, err) == (2, "", "error: lam must be finite\n")


class TestInverseKernel:
    def test_inverse_vector_format(self, capsys):
        code, doc = run_json(capsys, "inverse", "--pseq", "const:0.75", "--v", "e0")
        assert code == 0
        coords = doc["result"]["coordinates"]
        assert coords["lattice"] == "half-line"
        assert coords["offset"] == 1  # first coordinate always vanishes
        assert coords["values"][0] == [pytest.approx(4 / 3), 0.0]
        assert doc["result"]["residual_sup"] < 1e-10

    def test_inverse_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "inverse",
            "--pseq",
            "const:0.75",
            "--v",
            "e0",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "index,real,imag"

    def test_kernel_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "kernel",
            "--pseq",
            "const:0.75",
            "--power",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "vector,index,real,imag"

    def test_kernel_trivial_exit(self, capsys):
        code, out, err = run(capsys, "kernel", "--pseq", "const:0.5")
        assert code == 2
        assert "error:" in err

    def test_inverse_past_the_float_range_exit_2(self, capsys):
        # the float plane overflows, and so does its redo in complex
        code, out, err = run(capsys, "inverse", "--pseq", "const:0.75", "--v", "1.5e308")
        assert (code, out) == (2, "")
        assert err == "error: the preimage passes the float range (about 1.8e308)\n"

    @pytest.mark.filterwarnings("error")
    def test_inverse_of_entries_near_the_float_max_exit_0(self, capsys):
        # each entry of the preimage is finite, about 1.31e308, but the last
        # two sum past the float range: this exited 2 with the preimage error
        argv = ["inverse", "--pseq", "const:0.99", "--v", "1.3e308,1.3e308"]
        code, doc = run_json(capsys, *argv)
        assert code == 0
        values = doc["result"]["coordinates"]["values"]
        assert values[0] == values[1] == [1.3e308 / 0.99, 0.0]
        assert all(map(math.isfinite, itertools.chain(*values)))
        assert math.isfinite(doc["result"]["residual_sup"])

    @pytest.mark.filterwarnings("error")
    def test_inverse_truncated_tail_past_the_float_range_exit_2(self, capsys):
        # the tail passes the float range before index 700; it printed nan
        # coordinates and a nan residual, with exit 0
        argv = ["inverse", "--pseq", "const:0.1", "--v", "e0", "--max-support", "700"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: the preimage passes the float range (about 1.8e308)\n"

    def test_inverse_of_a_subnormal_vector_exit_0(self, capsys):
        # tol * sup|v| underflowed to 0: exit 3 with a tail-not-decaying error
        code, doc = run_json(capsys, "inverse", "--pseq", "const:0.51", "--v", "1e-320")
        assert code == 0
        assert doc["result"]["coordinates"]["offset"] == 1
        assert doc["result"]["residual_sup"] <= 1e-322

    def test_inverse_negative_max_support_exit_2(self, capsys):
        # it acted as --max-support 0, with exit 0
        argv = ["inverse", "--pseq", "const:0.75", "--v", "e0", "--max-support", "-3"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: max_support must be nonnegative, got -3\n")

    def test_kernel_too_large_to_allocate_exit_2(self, capsys):
        # numpy refuses the power-by-window array; it ended in a traceback
        code, out, err = run(capsys, "kernel", "--pseq", "const:0.75", "--power", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


class TestCertify:
    def test_fhc_yes(self, capsys):
        code, doc = run_json(
            capsys, "certify", "fhc", "--pseq", "const:0.75", "--lambda", "3"
        )
        assert code == 0
        res = doc["result"]
        assert res["kind"] == "fhc-chaos"
        assert res["holds"] == "yes"

    def test_fhc_undetermined_exit_3(self, capsys):
        code, out, err = run(
            capsys, "certify", "fhc", "--pseq", "const:0.4", "--lambda", "3"
        )
        assert code == 3
        assert json.loads(out)["result"]["holds"] == "undetermined"

    @pytest.mark.parametrize("lam", ["inf", "nan", "1+infj"])
    def test_fhc_non_finite_lambda_exit_2(self, capsys, lam):
        code, out, err = run(capsys, "certify", "fhc", "--pseq", "const:0.75", "--lambda", lam)
        assert code == 2
        assert out == ""
        assert "lam must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--lambda", "1e20"],
            ["--lambda", "1e12", "--n-max", "40"],
            ["--lambda", "1.5e308+1.5e308j"],  # |lam| overflows: abs(lam) raised
        ],
    )
    def test_fhc_huge_lambda_reports_the_underflow(self, capsys, argv):
        # before, |lam|^n overflowed in the forward rescaling: a traceback
        code, out, _ = run(capsys, "certify", "fhc", "--pseq", "const:0.75", *argv)
        assert code == 3
        res = json.loads(out)["result"]
        assert res["holds"] == "undetermined"
        assert "backward-underflow" in res["reason"]

    def test_fhc_subnormal_backward_tail_is_no_decay_failure(self, capsys):
        # a backward step's tolerance underflowed to 0: a tail-not-decaying error
        # blamed the jump probabilities, although p = 0.6
        argv = ["certify", "fhc", "--pseq", "const:0.6", "--lambda", "1e22"]
        code, doc = run_json(capsys, *argv)
        assert code == 3
        res = doc["result"]
        assert res["holds"] == "undetermined"
        assert res["reason"] == "numerical verification failed: periodic-point, backward-underflow"

    def test_fhc_tiny_lambda_is_blocked_by_the_ratio(self, capsys):
        # bound / |lam| overflows to inf; the reason once read that as no
        # per-step bound, though the step bound is about 5.  A blocked ratio
        # disproves nothing, so it is undetermined (exit 3), not a no
        argv = ["--pseq", "list:0.9;tail=0.6", "--lambda", "1e-320", "--space", "l1"]
        code, doc = run_json(capsys, "certify", "fhc", *argv)
        assert code == 3
        res = doc["result"]
        assert (res["holds"], res["witness"]["step_bound"]) == ("undetermined", pytest.approx(5.0))
        assert res["reason"].startswith("no by criterion: certified ratio >= 1")

    def test_supercyclicity(self, capsys):
        code, doc = run_json(
            capsys, "certify", "supercyclicity", "--pseq", "const:0.75"
        )
        assert code == 0
        assert doc["result"]["holds"] == "yes"

    def test_supercyclicity_kernel_past_the_float_range_exit_3(self, capsys):
        # 240 entries of 0.001 drive the kernel weights past 1e308; before,
        # kernel_basis's OverflowError ended the run with exit 2
        pseq = "list:" + ",".join(["0.001"] * 240) + ";tail=0.9"
        code, doc = run_json(capsys, "certify", "supercyclicity", "--pseq", pseq)
        assert code == 3
        res = doc["result"]
        assert res["holds"] == "undetermined"
        assert res["reason"] == "the kernel vector passes the float range (about 1.8e308)"

    @pytest.mark.parametrize(
        "pseq, n_max", [("const:0.55", "400"), ("const:0.51", "400"), ("const:0.6", "1000")]
    )
    def test_supercyclicity_backward_orbit_past_the_float_range_exit_3(self, capsys, pseq, n_max):
        # S^k target grows like (2p - 1)^-k and passes 1.8e308 before step
        # n_max; before, the OverflowError ended the run with exit 2
        code, doc = run_json(
            capsys, "certify", "supercyclicity", "--pseq", pseq, "--n-max", n_max
        )
        assert code == 3
        res = doc["result"]
        assert res["holds"] == "undetermined"
        assert res["reason"] == "the preimage passes the float range (about 1.8e308)"


class TestProbe:
    def test_obstruction(self, capsys):
        code, doc = run_json(
            capsys,
            "probe",
            "obstruction",
            "--pseq",
            "const:0.7",
            "--alpha",
            "1",
            "--perturb",
            "e0",
            "--n-max",
            "40",
        )
        assert code == 0
        assert doc["result"]["floor_ratio"] == 0.5

    def test_line_bound_holds(self, capsys):
        code, doc = run_json(
            capsys,
            "probe",
            "line-bound",
            "--pseq",
            "const:0.7",
            "--lattice",
            "line",
            "--x",
            "e0",
            "--n",
            "4",
        )
        assert code == 0
        assert doc["result"]["holds"] is True


class TestOracle:
    def test_transition_fields(self, capsys):
        code, doc = run_json(
            capsys,
            "oracle",
            "--pseq",
            "const:0.7",
            "--stat",
            "transition",
            "--n",
            "3",
            "--j",
            "1",
            "--samples",
            "2000",
            "--seed",
            "9",
        )
        assert code == 0
        res = doc["result"]
        assert res["samples"] == 2000
        assert 0.0 <= res["estimate"] <= 1.0
        assert res["stderr"] > 0.0

    def test_seeded_reproducibility(self, capsys):
        args = (
            "oracle", "--pseq", "const:0.6", "--stat", "transition",
            "--n", "5", "--j", "1", "--samples", "500", "--seed", "33",
        )
        _, doc1 = run_json(capsys, *args)
        _, doc2 = run_json(capsys, *args)
        assert doc1["result"]["estimate"] == doc2["result"]["estimate"]

    def test_csv_headers(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle",
            "--pseq",
            "const:0.7",
            "--stat",
            "transition",
            "--n",
            "2",
            "--j",
            "0",
            "--samples",
            "100",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("n,i,j,estimate,stderr")


class TestOrbit:
    def test_projective_square_past_the_float_range_exit_2(self, capsys):
        # |y|**2 overflows past |y| ~ 1.3e154, where the probe raises OverflowError
        argv = ["orbit", "--pseq", "const:0.7", "--x", "1e200", "--targets", "1", "--projective"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: the orbit's squared norm passes the float range (about 1.8e308)\n"

    @pytest.mark.parametrize("threshold", ["nan", "-0.25"])
    def test_bad_threshold_exit_2(self, capsys, threshold):
        # a nan threshold exited 0 and recorded no visits
        argv = ["orbit", "--pseq", "const:0.7", "--x", "e0", "--targets", "e0"]
        code, out, err = run(capsys, *argv, "--threshold", threshold)
        assert (code, out) == (2, "")
        assert err == f"error: threshold must be nonnegative, got {float(threshold)}\n"

    def test_orbit_probe(self, capsys):
        code, doc = run_json(
            capsys,
            "orbit",
            "--pseq",
            "const:0.75",
            "--x",
            "e0",
            "--targets",
            "e0|e1",
            "--n-max",
            "30",
        )
        assert code == 0
        assert len(doc["result"]["best"]) == 2


class TestErrors:
    def test_bad_pseq_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--pseq", "const:1.5")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "fhc", "--pseq", "const:0.75", "--lambda", "3", "--space", "l0"],
            # an infinite exponent: l^q needs a finite q, and str() of it would raise
            ["certify", "supercyclicity", "--pseq", "const:0.7", "--space", "l1e400"],
            ["orbit", "--pseq", "const:0.7", "--x", "e0", "--space", "linfinity", "--n-max", "3"],
            ["probe", "line-bound", "--pseq", "const:0.7", "--x", "e0", "--n", "3", "--space", "l1e400"],
        ],
        ids=["l0", "certify-l1e400", "orbit-linfinity", "line-bound-l1e400"],
    )
    def test_bad_space_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "bad space spec" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a probe at a state the half-line walk does not have, and
            # series evidence over no terms
            (["probe", "obstruction", "--pseq", "const:0.7", "--alpha", "1", "--perturb", "e0",
              "--i", "-3"], "half-line indices are nonnegative"),
            (["classify", "--pseq", "const:0.6", "--horizon", "-1"], "horizon must be at least 1"),
            (["classify", "--pseq", "const:0.6", "--horizon", "0", "--method", "series"],
             "horizon must be at least 1"),
        ],
        ids=["probe-index", "horizon-auto", "horizon-series"],
    )
    def test_out_of_range_index_or_horizon_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["inverse", "--pseq", "const:0.75", "--v", "1,2@x"],
             "bad offset in vector literal: 'x'"),
            (["inverse", "--pseq", "const:0.75", "--v", "1,abc"], "bad vector literal: '1,abc'"),
            (["inverse", "--pseq", "const:0.75", "--v", "@2"], "empty vector literal: '@2'"),
            (["spectrum", "--p", "0.75", "--lam-grid", "0:1:0"], "grid count must be at least 1"),
            (["spectrum", "--pseq", "periodic:0.6,0.7", "--lam", "0.5"],
             "grid/radius modes need a constant probability (use --p)"),
            (["spectrum", "--mode", "radius", "--pseq", "list:0.6;tail=0.7"],
             "grid/radius modes need a constant probability (use --p)"),
            (["spectrum", "--p", "0.75", "--lam", "0.5", "--lam-grid", "0:1:3"],
             "give either --lam or --lam-grid, not both"),
            (["spectrum", "--p", "0.75"], "grid mode needs --lam or --lam-grid"),
            (["spectrum", "--mode", "dual"], "dual mode needs --pseq"),
            (["inverse", "--pseq", "const:0.75", "--v", "e0", "--power", "-1"],
             "--power must be nonnegative"),
            (["kernel", "--pseq", "const:0.75", "--power", "0"], "--power must be at least 1"),
            (["certify", "fhc", "--pseq", "const:0.75"], "certify fhc needs --lambda"),
            (["certify", "supercyclicity", "--pseq", "const:0.75", "--lambda", "2"],
             "the supercyclicity certificate takes no --lambda"),
            (["probe", "obstruction", "--pseq", "const:0.7"], "probe obstruction needs --alpha"),
            (["probe", "line-bound", "--pseq", "const:0.7"], "probe line-bound needs --x"),
            (["oracle", "--pseq", "const:0.7", "--n", "3"],
             "oracle --stat transition needs --n and --j"),
            (["oracle", "--pseq", "const:0.7", "--j", "1"],
             "oracle --stat transition needs --n and --j"),
            (["oracle", "--stat", "return-mass", "--pseq", "const:0.7"],
             "oracle --stat return-mass needs --horizon"),
            (["orbit", "--pseq", "const:0.7", "--x", "e0", "--targets", "|"],
             "orbit needs at least one target"),
        ],
        ids=[
            "bad-offset", "bad-literal", "empty-before-offset", "grid-count", "grid-periodic",
            "radius-list", "lam-and-grid", "no-lam", "dual-no-pseq", "inverse-power",
            "kernel-power", "fhc-no-lambda", "supercyclicity-lambda", "obstruction-no-alpha",
            "line-bound-no-x", "transition-no-j", "transition-no-n", "return-mass-no-horizon",
            "orbit-no-target",
        ],
    )
    def test_missing_or_malformed_input_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_bad_vector_exit_2(self, capsys):
        code, _, err = run(
            capsys, "inverse", "--pseq", "const:0.75", "--v", "e-1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # before, inf warned and printed nan coordinates, nan ran into a
            # tail error, and an infinite alpha answered
            ["inverse", "--pseq", "const:0.75", "--v", "inf"],
            ["inverse", "--pseq", "const:0.75", "--v", "1,nan"],
            ["orbit", "--pseq", "const:0.75", "--x", "1+infj", "--targets", "e0"],
            ["orbit", "--pseq", "const:0.75", "--x", "e0", "--targets", "e1|-inf"],
            ["probe", "line-bound", "--pseq", "const:0.7", "--x", "nan", "--n", "3"],
            ["probe", "obstruction", "--pseq", "const:0.7", "--alpha", "inf", "--perturb", "e0"],
            ["probe", "obstruction", "--pseq", "const:0.7", "--alpha", "1", "--perturb", "inf"],
        ],
    )
    def test_non_finite_vector_or_alpha_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    def test_unknown_flag_exit_2(self, capsys):
        # certify and classify are json-only; --format is not among their flags
        for argv in (
            ["certify", "fhc", "--pseq", "const:0.75", "--lambda", "3"],
            ["classify", "--pseq", "const:0.75"],
        ):
            code, _, err = run(capsys, *argv, "--format", "csv")
            assert code == 2
            assert "unrecognized arguments: --format csv" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["inverse", "--pseq", "const:0.75", "--v", "e0", "--tol", "2"],
            ["inverse", "--pseq", "const:0.75", "--v", "e0", "--tol", "0"],
            ["inverse", "--pseq", "const:0.75", "--v", "e0", "--tol", "-1"],
            ["inverse", "--pseq", "const:0.75", "--v", "e0", "--tol", "nan"],
            ["kernel", "--pseq", "const:0.75", "--tol", "0"],
            ["certify", "fhc", "--pseq", "const:0.75", "--lambda", "3", "--tol", "-1"],
            ["spectrum", "--mode", "radius", "--p", "0.75", "--tol", "1"],
        ],
    )
    def test_tol_flag_outside_the_unit_interval_exit_2(self, capsys, argv):
        # a tolerance must lie in (0, 1); before this check, --tol 2
        # gave a "preimage" with residual 0.33 and --tol 0 blamed the jump
        # probabilities
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--tol must lie strictly between 0 and 1" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            # the first flag the mode does not read is named
            (["--p", "0.75", "--lam", "0.5", "--tol", "0.3", "--angles", "3"], "--angles"),
            (["--p", "0.75", "--lam", "0.5", "--tol", "0.3"], "--tol"),
            (["--p", "0.75", "--lam", "0.5", "--n-max", "5"], "--n-max"),
            (["--mode", "radius", "--p", "0.75", "--lam", "0.5"], "--lam"),
            (["--mode", "radius", "--p", "0.75", "--lam-grid=0:1:3"], "--lam-grid"),
            (["--mode", "radius", "--p", "0.75", "--n-max", "5"], "--n-max"),
            (["--mode", "dual", "--pseq", "const:0.25", "--p", "0.25"], "--p"),
            (["--mode", "dual", "--pseq", "const:0.25", "--band", "0.1"], "--band"),
            (["--mode", "dual", "--pseq", "const:0.25", "--tol", "0.1"], "--tol"),
            (["--mode", "symmetric", "--space", "l1"], "--space"),
            (["--mode", "symmetric", "--pseq", "const:0.5"], "--pseq"),
            (["--mode", "symmetric", "--angles", "3"], "--angles"),
        ],
    )
    def test_spectrum_rejects_the_flags_of_other_modes(self, capsys, argv, flag):
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == 2
        assert out == ""
        assert err.rstrip().endswith(f"takes no {flag}")

    @pytest.mark.parametrize("angles", ["0", "-2"])
    def test_spectrum_radius_needs_an_angle_exit_2(self, capsys, angles):
        # before, --angles 0 certified every radius and reported 2.0
        code, out, err = run(
            capsys, "spectrum", "--mode", "radius", "--p", "0.75", "--space", "c0",
            "--angles", angles,
        )
        assert code == 2
        assert out == ""
        assert "--angles must be at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "0.75", "--pseq", "const:0.3", "--lam", "0.9"],
            ["--mode", "radius", "--p", "0.75", "--pseq", "const:0.3"],
            ["--lam", "0.9"],
        ],
    )
    def test_spectrum_takes_exactly_one_of_p_and_pseq(self, capsys, argv):
        # before, --pseq was dropped without a word when --p was given
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == 2
        assert out == ""
        assert "give exactly one of --p and --pseq" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "0.75", "--lam", "1.5", "--space", "c0"],
            ["--mode", "radius", "--p", "0.75", "--space", "c0"],
        ],
    )
    def test_spectrum_negative_band_exit_2(self, capsys, argv):
        # before, --band -1 answered member: yes at lam = 1.5 on c0, and
        # radius mode reported 1.375 against 0.49999905
        code, out, err = run(capsys, "spectrum", *argv, "--band", "-1")
        assert code == 2
        assert out == ""
        assert "--band must be nonnegative" in err

    def test_spectrum_symmetric_n_max_zero_exit_2(self, capsys):
        # before, --n-max 0 ended in an IndexError traceback
        code, out, err = run(capsys, "spectrum", "--mode", "symmetric", "--n-max", "0")
        assert code == 2
        assert out == ""
        assert "n_max must be at least 1" in err

    def test_spectrum_modes_take_their_own_flags(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--mode", "radius", "--pseq", "const:0.75",
            "--space", "l2", "--band", "1e-6", "--angles", "4", "--tol", "1e-3",
        )
        assert code == 0
        assert doc["config"] | {"argv": None} == {
            "argv": None, "subcommand": "spectrum", "format": "json", "mode": "radius",
            "space": "l2", "p": 0.75, "angles": 4, "tol": 1e-3, "band": 1e-6,
        }

    def test_supercyclicity_rejects_tol_exit_2(self, capsys):
        # the certificate has no tolerance to set, so --tol would be ignored
        code, out, err = run(
            capsys, "certify", "supercyclicity", "--pseq", "const:0.75", "--tol", "0.5"
        )
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_tail_not_decaying_exit_3(self, capsys):
        code, out, _ = run(capsys, "inverse", "--pseq", "const:0.4", "--v", "e0")
        assert code == 3
        doc = json.loads(out)
        err = doc["result"]["error"]
        assert err["type"] == "tail-not-decaying"
        assert err["last_magnitude"] > 0


class TestParsers:
    def test_unit_vectors(self):
        v = parse_vector("e0", Lattice.HALF_LINE)
        assert v.at(0) == 1.0
        w = parse_vector("e-2", Lattice.LINE)
        assert w.at(-2) == 1.0

    def test_comma_list_with_offset(self):
        v = parse_vector("1,0.5,-0.25@-1", Lattice.LINE)
        assert v.at(-1) == 1.0
        assert v.at(0) == 0.5
        assert v.at(1) == -0.25

    def test_complex_entries(self):
        v = parse_vector("1+2j,0", Lattice.HALF_LINE)
        assert v.at(0) == 1 + 2j

    def test_grid(self):
        pts = parse_grid("0:1:5")
        assert len(pts) == 5
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            parse_vector("", Lattice.HALF_LINE)
        with pytest.raises(ValueError):
            parse_vector("e-1", Lattice.HALF_LINE)
        with pytest.raises(ValueError):
            parse_grid("0:1")
        for text in ("nan:0.5:3", "-1e308:1e308:3", "inf:0:1"):
            with pytest.raises(ValueError, match="grid points must be finite"):
                parse_grid(text)
        for text in ("inf", "1,nan", "1+infj@2", "-inf"):
            with pytest.raises(ValueError, match="must be finite"):
                parse_vector(text, Lattice.LINE)


def test_cli_import_leaves_exact_arithmetic_out():
    # the exact rule imports fractions on demand: a CLI run that never
    # decides at a threshold does not pay for it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, walkdyn.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
