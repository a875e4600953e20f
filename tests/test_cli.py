import json

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

    def test_supercyclicity(self, capsys):
        code, doc = run_json(
            capsys, "certify", "supercyclicity", "--pseq", "const:0.75"
        )
        assert code == 0
        assert doc["result"]["holds"] == "yes"


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

    def test_bad_space_exit_2(self, capsys):
        code, _, err = run(
            capsys, "certify", "fhc", "--pseq", "const:0.75",
            "--lambda", "3", "--space", "l0",
        )
        assert code == 2

    def test_bad_vector_exit_2(self, capsys):
        code, _, err = run(
            capsys, "inverse", "--pseq", "const:0.75", "--v", "e-1"
        )
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        # certify and classify are json-only; --format is not among their flags
        for argv in (
            ["certify", "fhc", "--pseq", "const:0.75", "--lambda", "3"],
            ["classify", "--pseq", "const:0.75"],
        ):
            code, _, err = run(capsys, *argv, "--format", "csv")
            assert code == 2
            assert "unrecognized arguments: --format csv" in err

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

    def test_bad_tol_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("WALKDYN_TOL", "nope")
        code, _, err = run(
            capsys, "inverse", "--pseq", "const:0.75", "--v", "e0"
        )
        assert code == 2
        assert "WALKDYN_TOL" in err

    def test_tol_env_used(self, capsys, monkeypatch):
        monkeypatch.setenv("WALKDYN_TOL", "1e-6")
        code, doc = run_json(
            capsys, "inverse", "--pseq", "const:0.75", "--v", "e0"
        )
        assert code == 0
        assert doc["config"]["tolerance"] == 1e-6

    def test_tol_env_sets_the_radius_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("WALKDYN_TOL", "1e-2")
        code, doc = run_json(capsys, "spectrum", "--mode", "radius", "--p", "0.75")
        assert code == 0
        assert doc["config"]["tol"] == 1e-2

    def test_tol_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WALKDYN_TOL", "1e-6")
        code, doc = run_json(
            capsys, "inverse", "--pseq", "const:0.75", "--v", "e0",
            "--tol", "1e-9",
        )
        assert code == 0
        assert doc["config"]["tolerance"] == 1e-9


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
