import json
import pathlib

import numpy as np
import pytest

from orbitpick import checks
from orbitpick.cli import main


def run(tmp_path, capsys, doc, command, *flags):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), *flags])
    out = capsys.readouterr()
    return code, out.out, out.err


FEASIBLE = {
    "nodes": [[0.0, 0.0], [0.5, 0.0]],
    "targets": [[0.0, 0.0], [0.5, 0.0]],
    "kernel": {"variant": "szego"},
}

INFEASIBLE = {
    "nodes": [[0.0, 0.0], [0.5, 0.0]],
    "targets": [[0.0, 0.0], [0.9, 0.0]],
    "kernel": {"variant": "szego"},
}


def test_pick_check_feasible(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, FEASIBLE, "pick-check")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "pick-check"
    assert report["psd"] is True
    assert report["matrix_size"] == 2


def test_pick_check_infeasible(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, INFEASIBLE, "pick-check")
    assert code == 1
    report = json.loads(out)
    assert report["psd"] is False
    assert report["min_eigenvalue"] < -0.3


def test_reports_are_byte_identical(tmp_path, capsys):
    doc = {
        "group": {"kind": "z2z2", "a": 0.5},
        "truncation": {"depth": 40, "strict": True},
        "nodes": [[0.1, 0.2], [-0.25, 0.1]],
        "targets": [[0.2, 0.0], [0.1, -0.05]],
        "kernel": {"variant": "composed", "power": 2},
    }
    _, first, _ = run(tmp_path, capsys, doc, "pick-check")
    _, second, _ = run(tmp_path, capsys, doc, "pick-check")
    assert first == second


def test_orbit_command(tmp_path, capsys):
    doc = {"group": {"kind": "cyclic", "a": 0.5}, "truncation": {"depth": 2}}
    code, out, _ = run(tmp_path, capsys, doc, "orbit")
    assert code == 0
    report = json.loads(out)
    words = [e["word"] for e in report["entries"]]
    assert words == ["", "a", "A", "aa", "AA"]
    assert report["partial_sum"] == pytest.approx(2.4, abs=1e-12)
    assert report["tail_bound"] == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert report["stabilizer_order_origin"] == 1


def test_orbit_generic_reports_no_certificate(tmp_path, capsys):
    doc = {
        "group": {
            "kind": "generic",
            "generators": [
                [[1.0, 0.0], [-0.5, 0.0], [-0.5, 0.0], [1.0, 0.0]]
            ],
        },
        "truncation": {"depth": 2},
    }
    code, out, _ = run(tmp_path, capsys, doc, "orbit")
    assert code == 0
    report = json.loads(out)
    assert report["tail_bound"] is None
    assert "certificate" in report["note"]


def test_orbit_generic_free_group_depth_8(tmp_path, capsys):
    # z -> (z - 1/2)/(1 - z/2) and z -> (z - i/2)/(1 + i z/2) generate a
    # free group acting freely on the orbit of 0: 1 + 4 (3^8 - 1)/2 words
    doc = {
        "group": {
            "kind": "generic",
            "generators": [
                [[1.0, 0.0], [-0.5, 0.0], [-0.5, 0.0], [1.0, 0.0]],
                [[1.0, 0.0], [0.0, -0.5], [0.0, 0.5], [1.0, 0.0]],
            ],
        },
        "truncation": {"depth": 8},
    }
    code, first, _ = run(tmp_path, capsys, doc, "orbit")
    assert code == 0
    report = json.loads(first)
    assert len(report["entries"]) == 13121
    assert report["stabilizer_order_origin"] == 1
    _, second, _ = run(tmp_path, capsys, doc, "orbit")
    assert first == second


def test_blaschke_eval_command(tmp_path, capsys):
    doc = {
        "group": {"kind": "cyclic", "a": 0.5},
        "truncation": {"depth": 60},
        "eval_points": [[0.3, 0.0], [0.0, 0.2]],
    }
    code, out, _ = run(tmp_path, capsys, doc, "blaschke-eval")
    assert code == 0
    report = json.loads(out)
    assert report["origin_multiplicity"] == 1
    assert len(report["values"]) == 2
    for entry in report["values"]:
        v = complex(*entry["value"])
        assert abs(v) <= 1.0
        assert entry["error_bound"] >= 0.0


def test_character_command(tmp_path, capsys):
    doc = {"group": {"kind": "cyclic", "a": 0.5}, "truncation": {"depth": 150}}
    code, out, _ = run(tmp_path, capsys, doc, "character")
    assert code == 0
    report = json.loads(out)
    value = complex(*report["characters"][0]["value"])
    assert abs(value + 1.0) <= 1e-6


def test_character_numerical_failure_exit_code(tmp_path, capsys):
    # the first extraction probe lands exactly on an orbit zero
    doc = {"group": {"kind": "cyclic", "a": 0.37}, "truncation": {"depth": 40}}
    code, _, err = run(tmp_path, capsys, doc, "character")
    assert code == 3
    assert "numerical failure" in err


def test_kernel_gram_command(tmp_path, capsys):
    doc = {
        "nodes": [[0.0, 0.0], [-0.5, 0.0], [0.5, 0.0]],
        "kernel": {"variant": "szego"},
    }
    code, out, _ = run(tmp_path, capsys, doc, "kernel-gram")
    assert code == 0
    report = json.loads(out)
    assert report["psd"] is True
    assert report["size"] == 3
    assert report["entries"][1][1] == pytest.approx([4 / 3, 0.0], abs=1e-12)


def test_orbit_pick_check_command(tmp_path, capsys):
    doc = {
        "group": {"kind": "cyclic", "a": 0.5},
        "truncation": {"depth": 30},
        "nodes": [[0.0, 0.0]],
        "targets": [[0.0, 0.0]],
    }
    code, out, _ = run(tmp_path, capsys, doc, "orbit-pick-check")
    assert code == 0
    report = json.loads(out)
    assert report["psd"] is True and report["depth"] == 30


def test_pick_norm_command(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, INFEASIBLE, "pick-norm")
    assert code == 0
    report = json.loads(out)
    assert report["pick_norm"] == pytest.approx(1.8, abs=1e-8)


def test_interpolate_szego(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, FEASIBLE, "interpolate", "--grid", "512")
    assert code == 0
    report = json.loads(out)
    assert report["target_residual"] <= 1e-8
    assert report["grid_norm"] <= 1.0 + 1e-8
    assert report["interpolant"]["degenerate_rank"] == 2


def test_interpolate_infeasible_exit(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, INFEASIBLE, "interpolate")
    assert code == 1
    report = json.loads(out)
    assert report["feasible"] is False


def test_interpolate_composed(tmp_path, capsys):
    doc = {
        "group": {"kind": "z2z2", "a": 0.5},
        "truncation": {"depth": 60},
        "nodes": [[0.15, 0.1], [-0.3, 0.2]],
        "targets": [[0.2, 0.0], [0.2, 0.0]],
        "kernel": {"variant": "composed", "power": 2},
    }
    code, out, _ = run(tmp_path, capsys, doc, "interpolate", "--grid", "512")
    assert code == 0
    report = json.loads(out)
    assert report["target_residual"] <= 1e-8
    assert report["interpolant"]["composition"]["power"] == 2


def test_amenable_average_command(tmp_path, capsys):
    doc = {
        "group": {"kind": "cyclic", "a": 0.5},
        "point": [0.3, 0.0],
        "monomial_power": 2,
        "terms": 2000,
    }
    code, out, _ = run(tmp_path, capsys, doc, "amenable-average")
    assert code == 0
    report = json.loads(out)
    assert abs(complex(*report["average"]) - 1.0) <= 0.05


def test_verify_command(capsys):
    code = main(["verify", "--seed", "7", "--grid", "256"])
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out)
    assert report["failed"] == 0
    assert "ok" in out.err


def test_verify_reports_crashed_and_failed_checks(capsys, monkeypatch):
    battery = [("crashes", lambda: 1 / 0), ("fails", lambda: (2.5, False))]
    monkeypatch.setattr(checks, "battery", lambda seed, grid_n: battery)
    assert main(["verify"]) == 3
    out = capsys.readouterr()
    report = json.loads(out.out)
    results = [(c["pass"], c["detail"]) for c in report["checks"]]
    assert results == [(False, None), (False, 2.5)]
    assert (report["passed"], report["failed"]) == (0, 2)
    assert "FAIL crashes: division by zero" in out.err and "FAIL fails" in out.err


MALFORMED = [
    {},  # no sections at all
    {"nodes": [[0.0, 0.0]], "kernel": {"variant": "szego"}},  # missing targets
    {"nodes": "zero", "targets": [[0.0, 0.0]], "kernel": {"variant": "szego"}},
    {"nodes": [[0.0]], "targets": [[0.0, 0.0]], "kernel": {"variant": "szego"}},
    {"nodes": [[2.0, 0.0]], "targets": [[0.0, 0.0]], "kernel": {"variant": "szego"}},
    {"nodes": [[0.0, 0.0]], "targets": [[0.0, 0.0]], "kernel": {"variant": "funky"}},
    {"nodes": [[0.0, 0.0]], "targets": [[0.0, 0.0], [0.1, 0.0]],
     "kernel": {"variant": "szego"}},
    {"nodes": [[0.0, 0.0]], "targets": [["x", 0.0]], "kernel": {"variant": "szego"}},
    {"nodes": [[0.0, 0.0]], "targets": [[0.0, 0.0]],
     "kernel": {"variant": "composed", "power": 0},
     "group": {"kind": "cyclic", "a": 0.5}},
    {"nodes": [[0.0, 0.0]], "targets": [[0.0, 0.0]],
     "kernel": {"variant": "composed", "power": 2},
     "group": {"kind": "cyclic", "a": 1.5}},
]


@pytest.mark.parametrize("doc", MALFORMED)
def test_malformed_inputs_exit_two(tmp_path, capsys, doc):
    code, _, err = run(tmp_path, capsys, doc, "pick-check")
    assert code == 2
    assert "$" in err or "error" in err


def test_unreadable_file(capsys):
    code = main(["pick-check", "/nonexistent/problem.json"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nodes: oops}")
    code = main(["pick-check", str(path)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


# -- reports pinned byte for byte -----------------------------------------------

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = [
    (problem, command, 0)
    for problem in ("even", "szego4")
    for command in ("kernel-gram", "pick-check", "pick-norm", "interpolate")
] + [("orbit", "kernel-gram", 0), ("matrix", "pick-check", 1)]


@pytest.mark.parametrize("problem,command,exit_code", GOLDEN)
def test_report_matches_golden(capsys, problem, command, exit_code):
    code = main([command, str(DATA / f"{problem}_problem.json")])
    assert code == exit_code
    golden = (DATA / f"{problem}.{command}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_verify_report_matches_golden(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    golden = (DATA / "verify-seed0.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("argv", [
    ["interpolate", str(DATA / "szego4_problem.json"), "--grid", "0"],
    ["verify", "--grid", "-5"],
    ["verify", "--seed", "-1"],
    ["pick-norm", str(DATA / "szego4_problem.json"), "--tolerance", "1"],  # not read
    ["character", str(DATA / "even_problem.json"), "--tolerance", "nan"],
    ["character", str(DATA / "even_problem.json"), "--tolerance", "-1"],
    ["pick-check", str(DATA / "even_problem.json"), "--depth", "-1"],
])
def test_rejected_options_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _emitted_matrix(out: str, key: str) -> np.ndarray:
    # "-0" must parse as -0.0, not as the integer 0
    report = json.loads(out, parse_int=float)
    return np.array(report[key], dtype=float)


def test_orbit_pick_matrix_with_zero_targets_is_the_orbit_gram(capsys):
    path = str(DATA / "orbit_problem.json")
    assert main(["kernel-gram", path]) == 0
    gram = _emitted_matrix(capsys.readouterr().out, "entries")
    assert main(["orbit-pick-check", path]) == 0
    pick = _emitted_matrix(capsys.readouterr().out, "matrix")
    assert gram.shape == pick.shape == (18, 18, 2)
    # the weight 1 - 0 conj(0) = 1 + 0j turns imaginary parts of -0.0
    # into +0.0; every other bit agrees
    assert (gram + 0.0).tobytes() == (pick + 0.0).tobytes()
