import csv
import io
import json

import numpy as np
import pytest

from sddde import hopf_l1, load_model
from sddde.cli import run
from sddde.model import MAX_NESTING

from conftest import model_path

SCALAR = str(model_path("scalar_nested.mdl"))
POSCONTROL = str(model_path("position_control.mdl"))
POSCONTROL_REF = ["--model", POSCONTROL, "--par", "tau0=1,s0=4,k=1,c=2,gamma=1", "--guess", "4,4"]
ROOT_KNOBS = ["--root-count", "--re-cutoff", "--cheb-nodes"]
DERIV_KNOBS = ["--deriv-radius", "--deriv-levels"]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def csv_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


class TestSubcommands:
    def test_hopf_nf_reports_l1(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "hopf-nf",
                "--model",
                SCALAR,
                "--par",
                "p=-1.5707963",
                "--omega-guess",
                "1",
            ],
        )
        assert code == 0
        (rec,) = [r for r in records(out) if r["kind"] == "result"]
        assert rec["L1"] == pytest.approx(0.0619, abs=1e-3)
        assert rec["criticality"] == "subcritical"
        assert rec["omega"] == pytest.approx(1.0, abs=1e-4)

    def test_eq_position_control(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "eq",
                "--model",
                POSCONTROL,
                "--par",
                "tau0=1,s0=4,k=1,c=2,gamma=1",
                "--guess",
                "4,4",
            ],
        )
        assert code == 0
        (rec,) = [r for r in records(out) if r["kind"] == "result"]
        assert rec["x"] == pytest.approx([4.0, 4.0], abs=1e-10)
        assert rec["delays"] == pytest.approx([0.0, 1.0, 4.0, 5.0])

    def test_hopf_nf_off_the_hopf_set_is_refused(self, capsys):
        # at (tau0, s0) = (1, 4) the root near 0.517i has Re lambda = -3.7e-3: no Hopf point
        code, out, err = invoke(capsys, ["hopf-nf", *POSCONTROL_REF, "--omega-guess", "0.52"])
        assert code == 1 and out == ""
        assert err == ("sddde: not a Hopf point: the root near i*0.517054 has real part "
                       "|Re lambda| = 0.00371\n")

    def test_missing_model_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, ["roots", "--model", "missing.mdl"])
        assert code == 2
        assert "cannot open model file" in err

    def test_too_deep_expression_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.mdl"
        deep = "sin(" * 300 + "x1@1" + ")" * 300
        path.write_text(f'dim=1\nparameters=["p"]\ndelays=["0"]\nrhs=["p - {deep}"]\n')
        code, out, err = invoke(capsys, ["eq", "--model", str(path), "--par", "p=0"])
        assert code == 2 and out == ""
        assert err == f"sddde: rhs[1]: expression nests deeper than {MAX_NESTING} levels\n"

    def test_unknown_parameter_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, ["eq", "--model", SCALAR, "--par", "p=-1.5,zz=1"]
        )
        assert code == 2
        assert "unknown parameter" in err

    def test_unassigned_parameter_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, ["eq", "--model", SCALAR])
        assert code == 2
        assert "not assigned" in err

    def test_bad_deriv_radius_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            ["hopf-nf", "--model", SCALAR, "--par", "p=-1.5707963",
             "--omega-guess", "1", "--deriv-radius", "2"],
        )
        assert code == 2
        assert err == "sddde: --deriv-radius must lie in (0, 1]\n"

    @pytest.mark.parametrize("argv, message", [
        (["branch", "--step-init", "0"], "--step-init must be positive and finite"),
        (["branch", "--step-init", "nan"], "--step-init must be positive and finite"),
        (["branch", "--max-points", "0"], "--max-points must be at least 1"),
        (["hopf-curve", "--step-init", "0"], "--step-init must be positive and finite"),
        (["eq", "--cheb-nodes", "0"], "--cheb-nodes must be at least 1"),
        (["roots", "--root-count", "0"], "--root-count must be at least 1"),
        (["roots", "--re-cutoff", "inf"], "--re-cutoff must be finite"),
    ], ids=["branch-step-init-0", "branch-step-init-nan", "branch-max-points-0",
            "hopf-curve-step-init-0", "eq-cheb-nodes-0", "roots-root-count-0",
            "roots-re-cutoff-inf"])
    def test_bad_step_and_root_values_are_usage_errors(self, capsys, argv, message):
        rest = {
            "branch": ["--model", SCALAR, "--par", "p=-1.5", "--free", "p", "--range=-2:-1"],
            "hopf-curve": ["--model", POSCONTROL, "--par", "tau0=1,s0=4,k=1,c=2,gamma=1",
                           "--free", "tau0,s0", "--omega-guess", "0.52", "--guess", "4,4"],
        }.get(argv[0], ["--model", SCALAR, "--par", "p=-1.5"])
        code, out, err = invoke(capsys, argv + rest)
        assert code == 2
        assert out == "" and err == f"sddde: {message}\n"

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command, knobs in [
            ("eq", DERIV_KNOBS), ("roots", DERIV_KNOBS), ("branch", DERIV_KNOBS),
            ("hopf-nf", ROOT_KNOBS), ("fold-nf", ROOT_KNOBS), ("hopf-curve", ROOT_KNOBS),
            ("simulate", ROOT_KNOBS + DERIV_KNOBS),
        ]
        for flag in knobs
    ])
    def test_knob_of_another_subcommand_is_usage_error(self, capsys, command, flag):
        # each subcommand takes only the numeric knobs it reads
        required = {
            "branch": ["--free", "p", "--range=-2:-1"],
            "hopf-nf": ["--omega-guess", "1"],
            "hopf-curve": ["--free", "p,p", "--omega-guess", "1"],
            "simulate": ["--t-end", "1", "--step", "0.1"],
        }.get(command, [])
        argv = [command, "--model", SCALAR, "--par", "p=-1.5", *required, flag, "3"]
        code, out, err = invoke(capsys, argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 3" in err

    def test_readme_monitored_hopf_curve(self, capsys):
        # the README hopf-curve --monitor-l1 example: L1 changes sign once on each leg
        code, out, err = invoke(
            capsys,
            ["hopf-curve", "--model", POSCONTROL, "--par", "tau0=1,s0=4,k=1,c=2,gamma=1",
             "--free", "tau0,s0", "--omega-guess", "0.52", "--guess", "4,4", "--monitor-l1"],
        )
        assert code == 0, err
        zeros = [r for r in records(out) if r["kind"] == "event" and r["event"] == "L1_ZERO"]
        assert len(zeros) == 2

    def test_refused_brackets_halve_the_radius(self, capsys):
        # at c = 0.7 two cubic brackets near s0 = 1.40 and 1.06 are refused at the
        # default radius (node levels disagree by 2.26e-05, tolerance 1.48e-05) and pass
        # at half of it; the curve matches a run with one more node level
        argv = ["hopf-curve", "--model", POSCONTROL, "--par", "tau0=1,s0=4,k=1,c=0.7,gamma=1",
                "--free", "tau0,s0", "--omega-guess", "0.52", "--guess", "4,4", "--monitor-l1"]
        runs = []
        for extra in ([], ["--deriv-levels", "3"]):
            code, out, err = invoke(capsys, argv + extra)
            assert code == 0, err
            runs.append(records(out))
        points = [[r for r in recs if r["kind"] == "point"] for recs in runs]
        events = [[r for r in recs if r["kind"] == "event"] for recs in runs]
        assert len(points[0]) == len(points[1]) == 31
        for ours, finer in zip(*points):
            assert ours["L1"] == pytest.approx(finer["L1"], rel=1e-8, abs=0)
        assert [e["event"] for e in events[0]] == ["L1_ZERO"] * 2
        assert [e["event"] for e in events[1]] == ["L1_ZERO"] * 2
        for ours, finer in zip(*events):
            assert ours["tau0"] == pytest.approx(finer["tau0"], abs=1e-6)
            assert ours["s0"] == pytest.approx(finer["s0"], abs=1e-6)
        # the zeros lie on the rays s0 / tau0 = 5.7714 and 1.2995
        assert [e["s0"] / e["tau0"] for e in events[0]] == pytest.approx([5.7714, 1.2995],
                                                                        abs=1e-4)

    def test_readme_curve_l1_matches_a_fresh_hopf_l1(self, capsys):
        # each point hands its own eigendata to hopf_l1; a fresh hopf_l1 refines the
        # root again and must give the same L1 (17 printed digits round-trip)
        code, out, err = invoke(
            capsys,
            ["hopf-curve", "--model", POSCONTROL, "--par", "tau0=1,s0=4,k=1,c=2,gamma=1",
             "--free", "tau0,s0", "--omega-guess", "0.52", "--guess", "4,4", "--monitor-l1"],
        )
        assert code == 0, err
        model = load_model(POSCONTROL)
        recs = [r for r in records(out) if r["kind"] in ("point", "event")]
        assert len(recs) > 30
        for rec in recs:
            params = model.params_from({"tau0": rec["tau0"], "s0": rec["s0"], "k": 1, "c": 2,
                                        "gamma": 1})
            fresh = hopf_l1(model, params, np.array(rec["x"]), rec["omega"])
            assert abs(fresh.L1 - rec["L1"]) <= 1e-10

    def test_l1_pole_at_fold_hopf_is_a_warning(self, capsys, tmp_path):
        # on b = c the real mode x2 has a zero root, so h11 and with it L1 diverge: L1
        # changes sign through a pole at b = 1, which is no degenerate Hopf point
        path = tmp_path / "fold_hopf.mdl"
        path.write_text(
            'dim = 2\nparameters = ["a", "b", "c"]\ntau_max = 2\ndelays = ["0", "1"]\n'
            'rhs = ["-a*x1@2 + x1@1*x2@1", "(b - c)*x2@1 + x1@1^2"]\n'
        )
        code, out, err = invoke(
            capsys,
            ["hopf-curve", "--model", str(path), "--par", "a=1.5707963267948966,b=0,c=1",
             "--free", "a,b", "--omega-guess", "1.5708", "--guess", "0,0", "--monitor-l1",
             "--max-points", "20"],
        )
        assert code == 0, err
        recs = records(out)
        assert [r for r in recs if r["kind"] == "event"] == []
        (warning,) = [r["message"] for r in recs if r["kind"] == "warning"]
        assert "pole" in warning and "b=1.00000" in warning

    def test_root_shortfall_reported_as_warning(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["roots", "--model", SCALAR, "--par", "p=-1.5707963267948966",
             "--root-count", "40"],
        )
        assert code == 0
        warns = [r for r in records(out) if r["kind"] == "warning"]
        assert any("roots" in w["message"] for w in warns)

    def test_numerical_failure_exit_code(self, capsys):
        # positive p sends the nested delay negative: numerical failure, not usage
        code, _, err = invoke(
            capsys, ["eq", "--model", SCALAR, "--par", "p=1.0", "--guess", "1.0"]
        )
        assert code == 1
        assert "delay out of range" in err

    def test_branch_leg_ends_at_the_delay_domain_boundary(self, capsys):
        # the nested delay -x turns negative past p = 0: the forward leg ends before it
        code, out, err = invoke(
            capsys, ["branch", "--model", SCALAR, "--par", "p=-0.5", "--free", "p", "--range=-1:1"]
        )
        assert code == 0, err
        params = [r["param"] for r in records(out) if r["kind"] == "point"]
        assert len(params) == 12 and params == sorted(params)
        assert params[0] == -1.0 and -0.2 < params[-1] < 0.0

    def test_raw_numeric_failure_maps_to_exit_1(self, capsys, tmp_path):
        # log of a non-positive state raises a math domain error mid-solve
        path = tmp_path / "logmodel.mdl"
        path.write_text(
            'name="logm"\ndim=1\nparameters=["p"]\ndelays=["0"]\nrhs=["log(x1@1) - p"]\n'
        )
        code, _, err = invoke(
            capsys, ["eq", "--model", str(path), "--par", "p=0", "--guess", "0"]
        )
        assert code == 1
        assert "numerical failure" in err

    def test_simulate_delay_out_of_range(self, capsys):
        code, out, err = invoke(
            capsys,
            ["simulate", "--model", SCALAR, "--par", "p=-1.6", "--history", "0.5",
             "--t-end", "1", "--step", "0.1"],
        )
        assert code == 1 and out == ""
        assert err == "sddde: delay out of range: slot 2 evaluated to -0.5, allowed [0, 10]\n"

    @pytest.mark.parametrize(
        "t_end, step, message",
        [("1", "nan", "step must be positive and finite"),
         ("nan", "0.1", "t_end must be finite"),
         ("inf", "0.1", "t_end must be finite")],
    )
    def test_simulate_non_finite_inputs(self, capsys, t_end, step, message):
        code, out, err = invoke(
            capsys,
            ["simulate", "--model", SCALAR, "--par", "p=-1.6", "--history", "-1.6",
             f"--t-end={t_end}", f"--step={step}"],
        )
        assert code == 1 and out == ""
        assert err == f"sddde: {message}\n"

    def test_simulate_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "simulate",
                "--model",
                SCALAR,
                "--par",
                "p=-1.5707963267948966",
                "--history",
                "-1.5707963267948966",
                "--t-end",
                "0.1",
                "--step",
                "0.05",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind,t,x1"
        assert len(lines) == 4  # header + 3 nodes

    def test_fold_nf(self, capsys, tmp_path):
        src = 'name="f"\ndim=1\nparameters=["p"]\ndelays=["0"]\nrhs=["p + x1@1^2"]\n'
        path = tmp_path / "fold.mdl"
        path.write_text(src)
        code, out, _ = invoke(
            capsys, ["fold-nf", "--model", str(path), "--par", "p=0"]
        )
        assert code == 0
        (rec,) = [r for r in records(out) if r["kind"] == "result"]
        assert rec["a"] == pytest.approx(1.0, abs=1e-8)

    def test_bundled_fold_model(self, capsys):
        # x' = p - x(t-1)^2 folds at p = 0, x = 0 with a = p0 F2(q, q) / 2 = -1
        code, out, _ = invoke(capsys, ["fold-nf", "--model", str(model_path("fold_quadratic.mdl")),
                                       "--par", "p=0", "--guess", "0"])
        assert code == 0
        assert records(out) == [{"kind": "result", "a": -1.0, "x": [0.0]}]

    def test_roots_stream(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["roots", "--model", SCALAR, "--par", "p=-1.5707963267948966", "--root-count", "4"],
        )
        assert code == 0
        pts = [r for r in records(out) if r["kind"] == "point"]
        assert len(pts) >= 2
        best = min(pts, key=lambda r: abs(complex(r["root"][0], r["root"][1]) - 1j))
        assert complex(best["root"][0], best["root"][1]) == pytest.approx(1j, abs=1e-8)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [["hopf-nf", "--model", SCALAR, "--par", "p=-1.5707963", "--omega-guess", "1"],
         # the README branch run, which has a HOPF event
         ["branch", "--model", SCALAR, "--par", "p=-1.5", "--free", "p", "--range=-2:-1"]],
        ids=["hopf-nf", "branch"],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = invoke(capsys, argv)
        _, out2, _ = invoke(capsys, argv)
        assert out1 == out2

    def test_branch_csv_has_header(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "branch",
                "--model",
                SCALAR,
                "--par",
                "p=-1.5",
                "--free",
                "p",
                "--range=-1.7:-1.3",
                "--step-init",
                "0.1",
                "--max-points",
                "12",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[0] == "kind"
        assert "param" in header and "stable" in header


# the README's CLI runs with --format csv
README_CSV = {
    "eq": ["eq", *POSCONTROL_REF],
    "branch": ["branch", "--model", SCALAR, "--par", "p=-1.5", "--free", "p", "--range=-2:-1"],
    "simulate": ["simulate", "--model", SCALAR, "--par", "p=-1.6", "--t-end", "50",
                 "--step", "0.02"],
}


class TestCsv:
    @pytest.mark.parametrize("name", list(README_CSV))
    def test_readme_runs_give_one_cell_per_column(self, capsys, name):
        code, out, err = invoke(capsys, README_CSV[name] + ["--format", "csv"])
        assert code == 0, err
        header, *rows = csv.reader(io.StringIO(out))
        assert header[0] == "kind" and rows
        assert all(len(row) == len(header) for row in rows)

    def test_eq_roots_are_re_im_columns(self, capsys):
        code, out, err = invoke(capsys, README_CSV["eq"] + ["--format", "csv"])
        assert code == 0, err
        (row,) = csv_rows(out)
        roots = [complex(float(row[f"roots{i}_re"]), float(row[f"roots{i}_im"]))
                 for i in range(1, 7)]
        assert roots[0] == pytest.approx(-0.0037079494 + 0.5170536735j, abs=1e-9)
        assert roots[1] == roots[0].conjugate()
        assert row["stable"] == "1"

    def test_branch_hopf_row_has_event_and_omega(self, capsys):
        code, out, err = invoke(capsys, README_CSV["branch"] + ["--format", "csv"])
        assert code == 0, err
        rows = csv_rows(out)
        (hopf,) = [row for row in rows if row["kind"] == "event"]
        assert hopf["event"] == "HOPF"
        assert float(hopf["omega"]) == pytest.approx(1.0, abs=1e-10)
        assert all(row["event"] == row["omega"] == "" for row in rows if row["kind"] == "point")

    def test_hopf_curve_l1_zero_rows_have_event_and_note(self, capsys):
        code, out, err = invoke(capsys, ["hopf-curve", *POSCONTROL_REF, "--free", "tau0,s0",
                                         "--omega-guess", "0.52", "--monitor-l1",
                                         "--format", "csv"])
        assert code == 0, err
        zeros = [row for row in csv_rows(out) if row["kind"] == "event"]
        assert len(zeros) == 2
        for row in zeros:
            assert row["event"] == "L1_ZERO"
            assert row["note"] == "degenerate Hopf (Bautin candidate)"
