import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitpick import __version__, checks, cli, orbits
from orbitpick.cli import main
from orbitpick.mobius import DiskAutomorphism


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


# the half-turn, z -> (z - 0.4)/(1 - 0.4 z) and lam (alpha - z)/(1 - conj(alpha) z)
# with lam = 0.6 + 0.8i, alpha = 0.3 - 0.1i
THREE_GENERATORS = {
    "kind": "generic",
    "generators": [
        [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        [[1.0, 0.0], [-0.4, 0.0], [-0.4, 0.0], [1.0, 0.0]],
        [[-0.6, -0.8], [0.26, 0.18], [-0.3, -0.1], [1.0, 0.0]],
    ],
}


def forbid_compose_after_the_orbit(monkeypatch):
    """Make every composition after the first orbit enumeration raise,
    so that only the orbit's own element search can serve what follows."""
    enumerate_orbit = orbits.enumerate_orbit

    def forbid_compose_after(*args):
        orbit = enumerate_orbit(*args)

        def compose(self, other):
            raise AssertionError("composed after the orbit was enumerated")

        monkeypatch.setattr(DiskAutomorphism, "compose", compose)
        return orbit

    monkeypatch.setattr(orbits, "enumerate_orbit", forbid_compose_after)


def test_orbit_stabilizer_counts_words_up_to_the_orbit_depth(tmp_path, capsys, monkeypatch):
    doc = {"group": THREE_GENERATORS, "truncation": {"depth": 4}}
    forbid_compose_after_the_orbit(monkeypatch)
    code, out, _ = run(tmp_path, capsys, doc, "orbit")
    assert code == 0
    report = json.loads(out)
    assert len(report["entries"]) == 247
    assert report["stabilizer_order_origin"] == 2  # the identity and the half-turn


@pytest.mark.parametrize("command", ["blaschke-eval", "character"])
def test_associated_product_counts_words_up_to_the_orbit_depth(
    tmp_path, capsys, monkeypatch, command
):
    doc = {
        "group": THREE_GENERATORS,
        "truncation": {"depth": 4, "strict": False},
        "associated": True,
        "eval_points": [[0.3, 0.0]],
    }
    lengths = []
    count = orbits.stabilizer_order_origin

    def stabilizer_order_origin(group, max_word_length=8):
        lengths.append(max_word_length)
        return count(group, max_word_length)

    monkeypatch.setattr(orbits, "stabilizer_order_origin", stabilizer_order_origin)
    forbid_compose_after_the_orbit(monkeypatch)
    code, out, err = run(tmp_path, capsys, doc, command)
    assert lengths == [4]
    if command == "blaschke-eval":
        assert code == 0
        assert json.loads(out)["stabilizer_power"] == 2
    else:  # the probe ratios of this truncated product spread by about 1e26
        assert code == 3
        assert "probe ratios spread" in err


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


def test_pick_norm_uncertified_norm_exits_three(tmp_path, capsys):
    doc = {
        "group": {"kind": "z2z2", "a": 0.1},
        "nodes": [[0.1, 0.2], [-0.2, 0.05]],
        "targets": [[0.1, 0.0], [0.0, 0.2]],
        "kernel": {"variant": "orbit", "depth": 160},
    }
    code, out, err = run(tmp_path, capsys, doc, "pick-norm")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:")


@pytest.mark.parametrize("command", ["pick-norm", "interpolate"])
def test_matrix_targets_to_scalar_commands_exit_two(capsys, command):
    assert main([command, str(DATA / "matrix_problem.json")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "scalar targets" in out.err


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


def test_closed_stdout_exits_141_without_a_traceback():
    # The reader closes its end before the report is written, as
    # ``orbitpick ... | head -c 10`` does to a report larger than the pipe.
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    command = [sys.executable, "-m", "orbitpick.cli", "pick-check",
               str(DATA / "even_problem.json")]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 141
    assert err == b""


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


# -- complex matrices rendered a row at a time ----------------------------------


def _reference_render(value) -> str:
    """The recursive renderer every report went through before complex
    matrices were rendered a row at a time: one ``format`` per float."""
    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(k)}: {_reference_render(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_reference_render(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _reference_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return f"[{_reference_float(c.real)}, {_reference_float(c.imag)}]"
    if isinstance(value, np.ndarray):
        return _reference_render(value.tolist())
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _reference_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports must not contain non-finite numbers")
    return format(x, ".17g")


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310,
    1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
    1.0, -3.0, 2.0**53, 123456789.0, 0.1,
]
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def complex_matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    layout = draw(st.sampled_from(["C", "transposed", "sliced"]))
    shape = {"C": (rows, cols), "transposed": (cols, rows),
             "sliced": (2 * rows, cols + 1)}[layout]
    n = 2 * shape[0] * shape[1]
    a = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)
    a = a.view(complex).reshape(shape)
    return {"C": a, "transposed": a.T, "sliced": a[::2, 1:]}[layout]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=complex_matrices())
@example(a=np.zeros((0, 0), dtype=complex))
@example(a=np.array([[complex(-0.0, -0.0)]]))
@example(a=np.array([[complex(5e-324, -1e300)]]))
def test_matrix_rendering_matches_the_reference(a):
    assert cli._render(a) == _reference_render(a)
    assert cli._render({"matrix": a}) == _reference_render({"matrix": a})


@pytest.mark.parametrize("bad", [
    complex(float("nan"), 0.0), complex(0.0, float("inf")), complex(float("-inf"), 1.0),
])
def test_matrix_rendering_rejects_non_finite_like_the_reference(bad):
    a = np.zeros((2, 3), dtype=complex)
    a[1, 2] = bad
    for render in (cli._render, _reference_render):
        with pytest.raises(ValueError) as info:
            render(a)
        assert str(info.value) == "reports must not contain non-finite numbers"


def test_large_orbit_pick_report_matches_the_reference(tmp_path, capsys):
    doc = {
        "group": {"kind": "cyclic", "a": 0.05},
        "truncation": {"depth": 120, "strict": True},
        "nodes": [[-0.25, -0.37], [0.38, -0.21], [-0.26, -0.24]],
        "targets": [[0.1, 0.0], [0.0, 0.2], [0.0, 0.0]],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = ["orbit-pick-check", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    payload, expected_code = cli.cmd_orbit_pick_check(
        doc, cli._build_parser().parse_args(argv)
    )
    assert code == expected_code
    assert payload["matrix_size"] > 400
    report = {"command": "orbit-pick-check", "version": __version__, **payload}
    assert out == _reference_render(report) + "\n"
