import cmath
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import large_target_draw
from orbitpick import __version__, checks, cli, orbits
from orbitpick import linalg as la
from orbitpick.cli import main
from orbitpick.mobius import DiskAutomorphism


DATA = pathlib.Path(__file__).parent / "data"


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

        def compose(*args):
            raise AssertionError("composed after the orbit was enumerated")

        monkeypatch.setattr(DiskAutomorphism, "compose", compose)
        monkeypatch.setattr(orbits, "_compose_grid", compose)
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


def test_kernel_gram_adopts_the_gram_matrix(capsys, monkeypatch):
    # the Gram matrix szego_matrix writes is mirrored, so the verdict
    # factors it where it stands, and the report prints the same bytes
    golden = (DATA / "orbit.kernel-gram.out").read_text(encoding="utf-8")

    def copying_constructor(self, entries):
        raise AssertionError("kernel-gram copied its Gram matrix")

    monkeypatch.setattr(la.HermitianMatrix, "__init__", copying_constructor)
    assert main(["kernel-gram", str(DATA / "orbit_problem.json")]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("kernel", [None, {"variant": "composed", "power": 2}])
def test_orbit_pick_check_command(tmp_path, capsys, kernel):
    # a kernel section of another variant leaves the truncation depth
    doc = {
        "group": {"kind": "cyclic", "a": 0.5},
        "truncation": {"depth": 30},
        "nodes": [[0.0, 0.0]],
        "targets": [[0.0, 0.0]],
    }
    if kernel is not None:
        doc["kernel"] = kernel
    code, out, _ = run(tmp_path, capsys, doc, "orbit-pick-check")
    assert code == 0
    report = json.loads(out)
    assert report["psd"] is True and report["depth"] == 30


ORBIT_DEPTHS = {
    "group": {"kind": "cyclic", "a": 0.5},
    "truncation": {"depth": 15},
    "nodes": [[0.1, 0.2], [-0.3, 0.1]],
    "targets": [[0.0, 0.0], [0.0, 0.0]],
    "kernel": {"variant": "orbit"},
}


@pytest.mark.parametrize("flags, depth", [((), 15), (("--depth", "20"), 20)])
def test_orbit_commands_resolve_one_depth(tmp_path, capsys, monkeypatch, flags, depth):
    # --depth, else the truncation depth, for every orbit of every command:
    # orbits and kernel rows alike are accepted by orbits._accept
    depths = []
    accept = orbits._accept

    def recorded(group, base, max_word_length, *rest):
        depths.append(max_word_length)
        return accept(group, base, max_word_length, *rest)

    monkeypatch.setattr(orbits, "_accept", recorded)
    reports = {}
    for command in ("orbit", "character", "pick-check", "orbit-pick-check"):
        code, out, _ = run(tmp_path, capsys, ORBIT_DEPTHS, command, *flags)
        assert code == 0
        reports[command] = json.loads(out)
    assert set(depths) == {depth}
    # the base point and a^n, A^n for n <= depth
    assert len(reports["orbit"]["entries"]) == 2 * depth + 1
    assert reports["orbit-pick-check"]["depth"] == depth
    assert reports["orbit-pick-check"]["matrix"] == reports["pick-check"]["matrix"]


@pytest.mark.parametrize("section, value, path", [
    ("kernel", {"variant": "orbit", "depth": 10}, "$.kernel.depth: the orbit depth is"),
    ("kernel", {"variant": "composed", "power": 2, "depth": 10}, "$.kernel.depth: the orbit depth is"),
    ("truncation", [3], "$.truncation: expected an object"),
    ("truncation", {"depth": "3"}, "$.truncation.depth: expected an integer"),
    ("truncation", {"strict": 1}, "$.truncation.strict: expected a boolean"),
])
@pytest.mark.parametrize("flags", [(), ("--depth", "3")])
def test_orbit_commands_refuse_a_second_or_malformed_depth(
    tmp_path, capsys, section, value, path, flags
):
    # the file is checked even when --depth sets the depth
    doc = dict(ORBIT_DEPTHS, **{section: value})
    for command in ("orbit", "pick-check", "orbit-pick-check"):
        code, out, err = run(tmp_path, capsys, doc, command, *flags)
        assert (code, out) == (2, "")
        assert path in err


@pytest.mark.parametrize("command, doc, message", [
    ("orbit", {"group": [0.5]}, "$.group: expected an object"),
    ("pick-check", dict(FEASIBLE, kernel="szego"), "$.kernel: expected an object"),
    ("character", {"group": {"kind": "cyclic", "a": 0.5}, "associated": 1},
     "$.associated: expected a boolean"),
    ("orbit", {"group": {"kind": "generic", "generators": [[[1, 0], [0, 0], [0, 0]]]}},
     "$.group.generators[0]: expected four [re, im] coefficients (p, q, r, s)"),
    ("pick-check", dict(FEASIBLE, targets=[[[[0, 0], [0, 0]]], [[[0, 0], [0, 0]]]]),
     "$.targets[0][0]: expected 1 entries"),
    ("pick-check", [FEASIBLE], "$: the problem file must hold a JSON object"),
])
def test_malformed_sections_exit_two_with_their_path(tmp_path, capsys, command, doc, message):
    code, out, err = run(tmp_path, capsys, doc, command)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, doc", [("pick-check", INFEASIBLE), ("kernel-gram", FEASIBLE)])
def test_a_valid_tolerance_is_the_one_used(tmp_path, capsys, command, doc):
    # at 0.5 the infeasible data's min eigenvalue, about -0.35, passes
    code, out, _ = run(tmp_path, capsys, doc, command, "--tolerance", "0.5")
    report = json.loads(out)
    assert (code, report["psd"], report["tolerance_used"]) == (0, True, 0.5)


def test_character_reads_its_tolerance(capsys):
    # the even file's probe ratios spread by about 1e-15 and 1e-13: a
    # loose tolerance gives the default report, a tight one refuses
    path = str(DATA / "even_problem.json")
    assert main(["character", path]) == 0
    default = capsys.readouterr().out
    assert main(["character", path, "--tolerance", "1e-3"]) == 0
    assert capsys.readouterr().out == default
    assert main(["character", path, "--tolerance", "1e-16"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("exceeds tolerance 1.000e-16\n")


def test_pick_norm_command(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, INFEASIBLE, "pick-norm")
    assert code == 0
    report = json.loads(out)
    assert report["pick_norm"] == pytest.approx(1.8, abs=1e-8)


def test_pick_norm_uncertified_norm_exits_three(tmp_path, capsys):
    doc = {
        "group": {"kind": "z2z2", "a": 0.1},
        "nodes": [[0.1, 0.2], [-0.2, 0.05]],
        "truncation": {"depth": 160},
        "targets": [[0.1, 0.0], [0.0, 0.2]],
        "kernel": {"variant": "orbit"},
    }
    code, out, err = run(tmp_path, capsys, doc, "pick-norm")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a composed power whose "
                   "character is not trivial gives no bound on the invariant norm")
def test_pick_norm_refuses_a_composed_power_with_a_nontrivial_character(tmp_path, capsys):
    # cyclic a = 0.5 has character -1 at power 1: today pick-norm prints
    # 4.0528952553666482 and exits 0
    doc = {
        "group": {"kind": "cyclic", "a": 0.5},
        "truncation": {"depth": 60},
        "nodes": [[0.1, 0.2], [-0.3, 0.1]],
        "targets": [[0.1, 0.0], [0.0, 0.2]],
        "kernel": {"variant": "composed", "power": 1},
    }
    code, out, _ = run(tmp_path, capsys, doc, "pick-norm")
    assert (code, out) == (2, "")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: nodes whose inner values lie "
                   "below the inner product's own error bound are refused as aliased")
@pytest.mark.parametrize("command", ["pick-check", "pick-norm", "interpolate"])
def test_composed_nodes_below_the_error_bound_are_not_malformed(tmp_path, capsys, command):
    # |B| at the nodes is 1.1e-8 and 1.0e-10, below B's certified error
    # bound of 6e-6: today each command exits 2 with "collapse"
    doc = {
        "group": {"kind": "z2z2", "a": 0.1},
        "truncation": {"depth": 160},
        "nodes": [[0.1, 0.2], [-0.2, 0.05]],
        "targets": [[0.1, 0.0], [0.0, 0.2]],
        "kernel": {"variant": "composed", "power": 2},
    }
    code, _, _ = run(tmp_path, capsys, doc, command)
    assert code != 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21: interpolate has no invariant "
                   "interpolant for the orbit kernel")
def test_interpolate_with_an_orbit_kernel_on_z2z2(tmp_path, capsys):
    # targets (0.1, 0.2i) scaled to the invariant norm 0.9 (item 6's
    # 30966.3828240); the composed B^2 kernel interpolates these with
    # residual 8.6e-22 and grid sup 0.891, while the orbit kernel exits 2
    scale = 0.9 / 30966.3828240
    doc = {
        "group": {"kind": "z2z2", "a": 0.3},
        "truncation": {"depth": 60},
        "nodes": [[0.1, 0.2], [-0.3, 0.1]],
        "targets": [[0.1 * scale, 0.0], [0.0, 0.2 * scale]],
        "kernel": {"variant": "orbit"},
    }
    code, out, _ = run(tmp_path, capsys, doc, "interpolate")
    assert code == 0
    report = json.loads(out)
    assert report["target_residual"] <= 1e-12 and report["grid_norm"] <= 1.0


def test_scalar_commands_agree_on_sixteen_nodes_past_their_norm(capsys):
    # szego16 is item 1's seed-3 data, targets scaled to a reference norm
    # of 1.01: pick-check exits 0 (min_eigenvalue -2.6e-15 above
    # -tolerance_used 2.4e-10), interpolate exits 0 with a boundary
    # solution of residual 5.0e-9 and pick-norm prints 0.0814, so the
    # three agree, on the wrong side of 1 (items 1 and 2)
    path = str(DATA / "szego16_problem.json")
    check = main(["pick-check", path])
    main(["pick-norm", path])
    norm = json.loads(capsys.readouterr().out.splitlines()[-1])["pick_norm"]
    assert main(["interpolate", path]) == check
    assert (norm > 1.0) == (check == 1)


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


AVERAGE = {
    "group": {"kind": "cyclic", "a": 0.5},
    "point": [0.3, 0.0],
    "monomial_power": 2,
    "terms": 20,
}


def test_amenable_average_takes_a_negative_parameter(tmp_path, capsys):
    # -a generates the same group as a: the averages differ in the
    # summation order only
    averages = []
    for a in (0.5, -0.5):
        code, out, err = run(tmp_path, capsys, dict(AVERAGE, group={"kind": "cyclic", "a": a}),
                             "amenable-average")
        assert (code, err) == (0, "")
        averages.append(complex(*json.loads(out)["average"]))
    assert abs(averages[0] - averages[1]) <= 1e-15


@pytest.mark.parametrize("field, message", [
    ("terms", "$.terms: the window size must be nonnegative"),
    ("monomial_power", "$.monomial_power: monomial power must be nonnegative"),
])
def test_amenable_average_names_the_negative_field(tmp_path, capsys, field, message):
    code, out, err = run(tmp_path, capsys, dict(AVERAGE, **{field: -1}), "amenable-average")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("truncation", [None, {}, {"strict": False}])
@pytest.mark.parametrize("command", ["orbit", "character"])
def test_a_generic_group_without_a_depth_exits_two(tmp_path, capsys, command, truncation):
    doc = {"group": THREE_GENERATORS}
    if truncation is not None:
        doc["truncation"] = truncation
    code, out, err = run(tmp_path, capsys, doc, command)
    assert (code, out) == (2, "")
    assert err == "error: $.truncation.depth: a generic presentation needs an explicit depth\n"


def test_a_generic_group_takes_its_depth_from_the_option(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, {"group": THREE_GENERATORS}, "orbit", "--depth", "2")
    assert code == 0
    assert max(len(e["word"]) for e in json.loads(out)["entries"]) == 2


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


# -- refusals and reports, pinned once for main() and fresh processes ------------

# Arrays of 2e15 + 1 and 1e15 int64 entries (14 and 7 PiB) exceed the
# 128 TiB address space, so numpy refuses them before allocating
# (MemoryError).  Sizes past numpy's index range it refuses with a
# ValueError, and powers past the float range overflow: nothing is
# allocated either way.
_HUGE = 10**15
_BEYOND = str(10**20)
_BIG = 10**400  # an integer literal of 401 digits, beyond the double range
_GENERATOR = [[1.0, 0.0], [-0.5, 0.0], [-0.5, 0.0], [1.0, 0.0]]
_COMPOSED = dict(FEASIBLE, group={"kind": "cyclic", "a": 0.5}, truncation={"depth": 3},
                 kernel={"variant": "composed", "power": _BIG})
_TINY_Z2Z2 = dict(FEASIBLE, group={"kind": "z2z2", "a": 1e-17}, truncation={"depth": 3},
                  kernel={"variant": "composed", "power": 2}, eval_points=[[0.1, 0.0]])
# the weights 1 - w_i conj(w_j) of finite targets overflow
_OVERFLOW = dict(FEASIBLE, nodes=[[0.1, 0.2], [-0.3, 0.1]], targets=[[1e200, 0.0], [0.0, 1e200]])
# Every orbit point of node 0 lies beyond the kernel radius.  Dropping
# its rows would drop its target 5: the check would pass and the norm
# would read 0.1.  With zero targets nothing is to be dropped either.
_ALL_CUT = {"group": {"kind": "cyclic", "a": 0.5}, "truncation": {"depth": 10},
            "nodes": [[0.0, 0.9995], [0.1, 0.2]], "targets": [[5.0, 0.0], [0.1, 0.0]],
            "kernel": {"variant": "orbit"}}
_BOUNDARY = {"group": {"kind": "cyclic", "a": 0.5}, "truncation": {"depth": 60},
             "nodes": [[0.9995, 0.0], [0.1, 0.2]], "targets": [[0.0, 0.0], [0.0, 0.0]],
             "kernel": {"variant": "composed", "power": 2}}
# nodes 1 and 2 collapse under the even composed map, with unequal targets
_ALIAS = {"group": {"kind": "z2z2", "a": 0.5}, "truncation": {"depth": 120},
          "nodes": [[0.1, 0.0], [0.3, 0.0], [-0.3, 0.0]],
          "targets": [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]],
          "kernel": {"variant": "composed", "power": 2}}
# |w|^2 = 8.1e-341 underflows to 0: a pencil of B = 0 would read a norm
# of 0, and pick-norm solves it at unit scale instead
_UNDERFLOW = dict(FEASIBLE, targets=[[0.0, 0.0], [0.9e-170, 0.0]])
# targets of modulus up to 5.15e151 pass the overflow bound at scale 0;
# the pencil is solved at unit scale, and the verdict at its norm refuses
_LARGE_NODES, _LARGE_TARGETS = large_target_draw(0)
_LARGE = {"nodes": [[z.real, z.imag] for z in _LARGE_NODES],
          "targets": [[w.real, w.imag] for w in _LARGE_TARGETS], "kernel": {"variant": "szego"}}


def _problem(name):
    return json.loads((DATA / f"{name}_problem.json").read_text(encoding="utf-8"))


def _rows_past_the_dimension(w):
    """16 nodes 0.45 e^{ik} (0.5 + 0.5 (k mod 2)), target w each, whose
    cyclic a = 0.05 orbits to depth 200 give 2,388 kernel rows."""
    nodes = [0.45 * cmath.exp(1j * k) * (0.5 + 0.5 * (k % 2)) for k in range(16)]
    return {"group": {"kind": "cyclic", "a": 0.05}, "truncation": {"depth": 200},
            "nodes": [[z.real, z.imag] for z in nodes], "targets": [[w, 0.0]] * 16,
            "kernel": {"variant": "orbit"}}


_OUT_OF_MEMORY = "numerical failure: out of memory: Unable to allocate ..."
_NOT_A_FLOAT = "numerical failure: int too large to convert to float"
_PAST_THE_INDEX = "numerical failure: Maximum allowed size exceeded"
_NO_ROW = ("numerical failure: point 0 at 0.9995j has no orbit point to depth 10 "
           "within the kernel radius 0.999")

# Every refusal of a problem file: (document, argv after the file, exit
# code, stderr line).  A line ending in "..." is a prefix: the rest of
# numpy's message carries an allocation size.  A refused command prints
# nothing on stdout.
REFUSALS = [
    (dict(AVERAGE, terms=_HUGE), ("amenable-average",), 3, _OUT_OF_MEMORY),
    ({"group": {"kind": "cyclic", "a": 0.5}}, ("orbit", "--depth", str(_HUGE)), 3,
     _OUT_OF_MEMORY),
] + [
    (_COMPOSED, (command,), 3, _NOT_A_FLOAT)
    for command in ("kernel-gram", "pick-check", "pick-norm", "interpolate")
] + [
    (dict(AVERAGE, monomial_power=_BIG), ("amenable-average",), 3, _NOT_A_FLOAT),
    (dict(AVERAGE, terms=10**18), ("amenable-average",), 3,
     "numerical failure: array is too big; `arr.size * arr.dtype.itemsize` is larger "
     "than the maximum possible size."),
    (dict(AVERAGE, terms=10**30), ("amenable-average",), 3, _PAST_THE_INDEX),
    (FEASIBLE, ("interpolate", "--grid", _BEYOND), 3, _PAST_THE_INDEX),
] + [
    (_problem(name), (command, "--depth", _BEYOND), 3, _PAST_THE_INDEX)
    for name, command in (("cyclic40", "orbit"), ("orbit", "pick-check"),
                          ("even", "pick-check"), ("cyclic120", "character"))
] + [
    (doc, (command,), 2, f"error: {path}: number must be finite")
    for doc, command, path in (
        (dict(FEASIBLE, nodes=[[_BIG, 0.0], [0.5, 0.0]]), "pick-check", "$.nodes[0][0]"),
        (dict(FEASIBLE, targets=[[0.0, 0.0], [0.5, -_BIG]]), "pick-check", "$.targets[1][1]"),
        ({"group": {"kind": "cyclic", "a": _BIG}}, "orbit", "$.group.a"),
        ({"group": {"kind": "generic",
                    "generators": [[_GENERATOR[0], [_BIG, 0.0]] + _GENERATOR[2:]]}},
         "orbit", "$.group.generators[0][1][0]"),
        ({"group": {"kind": "cyclic", "a": 0.5}, "base": [0.1, _BIG]}, "orbit", "$.base[1]"),
        (dict(_problem("rotation4"), eval_points=[[0.3, 0.1], [_BIG, 0.45]]), "blaschke-eval",
         "$.eval_points[1][0]"),
        (dict(AVERAGE, point=[-_BIG, 0.2]), "amenable-average", "$.point[0]"),
    )
] + [
    (_TINY_Z2Z2, (command,), 2,
     "error: $.group.a: the translation z -> (z - a)/(1 - a z) is the identity map")
    for command in ("orbit", "blaschke-eval", "character", "kernel-gram", "pick-check",
                    "orbit-pick-check", "interpolate")
] + [
    (_OVERFLOW, (command,), 3, "numerical failure: the weighted kernel matrix overflows: "
     "targets of modulus 1e+200 against kernel entries up to 1.11")
    for command in ("pick-check", "pick-norm", "interpolate")
] + [
    (doc, (command,), 3, _NO_ROW)
    for doc in (_ALL_CUT, dict(_ALL_CUT, targets=[[0.0, 0.0], [0.0, 0.0]]))
    for command in ("orbit-pick-check", "pick-check", "pick-norm", "kernel-gram")
] + [
    (_BOUNDARY, (command,), 3,
     "numerical failure: |z| = 0.99950000000000006 exceeds the evaluation radius 0.999")
    for command in ("pick-check", "pick-norm", "kernel-gram", "interpolate")
] + [
    # refused when the problem or the Gram matrix is about to be built:
    # pick-norm reads no norm 0 off zero targets, and none builds a matrix
    (_rows_past_the_dimension(w), (command,), 2,
     "error: matrix dimension 2388 exceeds the supported 2000")
    for w in (0.0, 0.1)
    for command in ("pick-check", "orbit-pick-check", "pick-norm", "kernel-gram")
] + [
    # a falsy section is not an absent one: it does not default the depth
    (dict(ORBIT_DEPTHS, truncation=value), (command,), 2, "error: $.truncation: expected an object")
    for value in ([], 0, False, "", None)
    for command in ("orbit", "orbit-pick-check")
] + [
    (_ALIAS, (command,), 2,
     "error: nodes 1 and 2 collapse under the inner map but their targets differ")
    for command in ("pick-check", "pick-norm", "interpolate")
] + [
    # coincident nodes: every command refuses the file before any report
    (_problem("duplicate"), (command,), 2, "error: points 0 and 2 coincide within 1e-10")
    for command in ("kernel-gram", "pick-check", "orbit-pick-check", "pick-norm", "interpolate")
] + [
    # generators that are no disk automorphism, or the identity
    ({"group": {"kind": "generic", "generators": [generator]}, "truncation": {"depth": 2}},
     ("orbit",), 2, f"error: {line}")
    for generator, line in (
        ([[0.0, 0.0]] * 4, "$.group.generators[0]: zero map"),
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
         "$.group.generators: generator 0 is the identity map"),
    )
] + [
    # a scalar target after a matrix one
    (dict(FEASIBLE, targets=[[[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]], 5]),
     ("pick-check",), 2, "error: $.targets[1]: expected a square matrix of [re, im] pairs"),
    (_LARGE, ("pick-norm",), 3, "numerical failure: the weighted kernel matrix overflows: "
     "targets of modulus 5.15e+151 against kernel entries up to 1.32"),
] + [
    # a generator whose canonical form fails one of mobius.canonicalize's checks
    ({"group": {"kind": "generic", "generators": [generator]}, "truncation": {"depth": 2}},
     ("orbit",), 2, f"error: $.group.generators[0]: {line}")
    for generator, line in (
        ([[1e-20, 0.0], [0.999999999, 0.0], [0.0, 0.0], [1.0, 0.0]],
         "degenerate map: leading coefficient vanishes"),
        ([[1e-13, 0.0], [0.999999999, 0.0], [0.0, 0.0], [1.0, 0.0]],
         "preimage of 0 lies outside the disk"),
        ([[1.0, 0.0], [1e-9, 0.0], [0.0, 0.0], [1.0, 0.0]],
         "canonical form does not reproduce the map on the probe grid"),
    )
]


def _stderr_fits(err, line):
    """``err`` is ``line`` and a newline or, for a line ending in "...",
    one line starting with the rest; it names no traceback or warning."""
    if line.endswith("..."):
        fits = err.startswith(line[:-3]) and err.count("\n") == 1
    else:
        fits = err == line + "\n"
    return fits and "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("row", REFUSALS,
                         ids=[f"{i}-{row[1][0]}" for i, row in enumerate(REFUSALS)])
def test_refusal(tmp_path, capsys, row):
    doc, argv, want, line = row
    code, out, err = run(tmp_path, capsys, doc, *argv)
    assert (code, out) == (want, "")
    assert _stderr_fits(err, line), err


def test_pick_norm_of_targets_whose_squares_underflow(tmp_path, capsys):
    # 0.9e-170 / 0.5, the two-point distance formula
    code, out, err = run(tmp_path, capsys, _UNDERFLOW, "pick-norm")
    assert (code, err) == (0, "")
    assert out == ('{"command": "pick-norm", "version": "%s", '
                   '"pick_norm": 1.8000000000000002e-170}\n' % __version__)


def _szego_doc(nodes, targets):
    return {"nodes": [[z.real, z.imag] for z in nodes],
            "targets": [[w.real, w.imag] for w in targets], "kernel": {"variant": "szego"}}


@pytest.mark.parametrize("k", [-1000, -600, -520])
def test_scalar_commands_agree_on_targets_whose_squares_underflow(tmp_path, capsys, k):
    # large_target_draw's recipe at scale 2^k: every draw is feasible,
    # and pick-norm answers as pick-check and interpolate do
    for seed in range(10):
        doc = _szego_doc(*large_target_draw(seed, 2.0**k))
        for command in ("pick-check", "pick-norm", "interpolate"):
            code, _, err = run(tmp_path, capsys, doc, command)
            assert (code, err) == (0, ""), (seed, command)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2 and 15: pick-norm refuses targets "
                   "whose Pick matrix at its norm overflows, where pick-check and "
                   "interpolate answer")
def test_scalar_commands_agree_on_targets_near_the_squared_range(tmp_path, capsys):
    # _LARGE, seed 0 of the recipe at scale 1e152: pick-check and
    # interpolate exit 1 (min eigenvalue -1.275e304), and pick-norm exits
    # 3, as the verdict at its norm c checks the matrix at c^2 and overflows
    check = run(tmp_path, capsys, _LARGE, "pick-check")[0]
    assert run(tmp_path, capsys, _LARGE, "interpolate")[0] == check
    code, out, _ = run(tmp_path, capsys, _LARGE, "pick-norm")
    assert code == 0
    assert (json.loads(out)["pick_norm"] > 1.0) == (check == 1)


# Reports pinned byte for byte: (problem, command, exit code), the report
# being tests/data/<problem>.<command>.out.
GOLDEN = [
    (problem, command, 0)
    for problem in ("even", "szego4")
    for command in ("kernel-gram", "pick-check", "pick-norm", "interpolate")
] + [("orbit", "kernel-gram", 0), ("matrix", "pick-check", 1)] + [
    # boundary drops, half-turn duplicates and a generic search
    (problem, "orbit", 0) for problem in ("cyclic40", "halfturn40", "free4")
] + [("average", "amenable-average", 0)] + [
    # a rotation of order 4 among the generators: the element search and
    # the stabilizer count both reach the report
    ("rotation4", "blaschke-eval", 0),
] + [
    # unequal targets on the composed kernel: the grid norm and the
    # interpolant's nodes depend on every bit of the orbit product
    ("cyclic60", "interpolate", 0),
    # the consistency residual prints the probe ratios to 17 digits
    ("cyclic120", "character", 0),
    # +z and -z collapse under the even composed map with equal targets:
    # the recursion keeps the first of the two, the verdict sees both
    ("alias", "interpolate", 0),
] + [
    # a translation by 0.999: compositions whose parameter rounds onto
    # the unit circle must be pulled back inside
    ("rim8", "orbit", 0),
]


@pytest.mark.parametrize("problem,command,exit_code", [
    # the interpolate reports keep their bytes under numpy's baseline
    # dispatch and OpenBLAS's Haswell kernels: the Schur pass runs in
    # Python complex arithmetic, its evaluation in numpy real arithmetic
    pytest.param(*row, marks=(pytest.mark.baseline_dispatch, pytest.mark.blas_kernels))
    if row[1] == "interpolate" else row
    for row in GOLDEN
])
def test_report_matches_golden(capsys, problem, command, exit_code):
    code = main([command, str(DATA / f"{problem}_problem.json")])
    assert code == exit_code
    golden = (DATA / f"{problem}.{command}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# Verdicts: (problem, command, exit code), an exit code 0 or 1 being the
# report's "psd" field.  Under other BLAS kernels (CI reruns these under
# OpenBLAS's Haswell ones) a report's last digits may move, its verdict not.
VERDICTS = [
    ("even", "pick-check", 0), ("szego4", "pick-check", 0), ("matrix", "pick-check", 1),
    ("duplicate", "pick-check", 2), ("cyclic60", "pick-check", 0), ("alias", "pick-check", 0),
] + [
    # orbit Pick matrices of 18 to 596 rows
    (problem, "orbit-pick-check", code)
    for problem, code in (("orbit", 0), ("even", 0), ("cyclic60", 0), ("alias", 0),
                          ("threads596", 1))
]


@pytest.mark.blas_kernels
@pytest.mark.parametrize("problem,command,exit_code", VERDICTS)
def test_verdict(problem, command, exit_code):
    assert main([command, str(DATA / f"{problem}_problem.json")]) == exit_code


@pytest.mark.parametrize("problem,command", [
    (problem, command) for problem, command, code in GOLDEN
    if command in ("pick-check", "kernel-gram")
])
def test_every_printed_matrix_is_hermitian(problem, command):
    report = json.loads((DATA / f"{problem}.{command}.out").read_text(encoding="utf-8"))
    pairs = np.array(report["matrix" if command == "pick-check" else "entries"])
    a = pairs[..., 0] + 1j * pairs[..., 1]
    lower = np.tril_indices(a.shape[0], -1)
    # compared as numbers: a Hermitian part and its mirror can differ in
    # the sign of a zero
    assert (a[lower] == a.T[lower].conj()).all()


@pytest.mark.baseline_dispatch
def test_verify_report_matches_golden(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    golden = (DATA / "verify-seed0.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _fresh_env():
    """The environment with ``src/`` first on PYTHONPATH, for a fresh
    ``python -m orbitpick.cli`` process."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _cli_benchmark_seeds():
    """The verify seeds of the cli benchmark workload: s * 1000 + c for
    seeds s = 1-10 and as many cycles c as bench/run.py plans for
    BENCHMARK.json's run_seconds."""
    root = DATA.parents[1]
    sys.path.insert(0, str(root / "bench"))
    import run as bench  # pins the BLAS thread count in os.environ

    seconds = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    return [s * 1000 + c for s in range(1, 11) for c in range(bench.cycles_for("cli", seconds))]


def check_fresh_processes():
    """Run every refusal, every golden, ``verify --seed 0`` and ``verify``
    at every seed of the cli benchmark workload in a fresh process each,
    as users and that workload start the CLI, and exit 1 naming every
    run that differs: a refusal in its exit code, stdout or stderr, a
    golden in its exit code or stdout bytes, a seed in its exit code.
    From the repository root: ``PYTHONPATH=src python tests/test_cli.py``."""
    env = _fresh_env()  # before bench/run.py pins the BLAS threads
    runs = []  # (argv, exit code, stdout bytes or None, stderr line or None)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (doc, (command, *flags), code, line) in enumerate(REFUSALS):
            path = pathlib.Path(tmp, f"refusal{i}.json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            runs.append(([command, str(path), *flags], code, b"", line))
        runs += [
            ([command, str(DATA / f"{problem}_problem.json")], code,
             (DATA / f"{problem}.{command}.out").read_bytes(), None)
            for problem, command, code in GOLDEN
        ]
        runs.append((["verify", "--seed", "0"], 0, (DATA / "verify-seed0.out").read_bytes(), None))
        runs += [(["verify", "--seed", str(seed)], 0, None, None) for seed in _cli_benchmark_seeds()]
        for argv, want, stdout, line in runs:
            proc = subprocess.run([sys.executable, "-m", "orbitpick.cli", *argv],
                                  capture_output=True, env=env, timeout=600)
            err = proc.stderr.decode()
            if (proc.returncode != want or (stdout is not None and proc.stdout != stdout)
                    or (line is not None and not _stderr_fits(err, line))):
                failures.append(f"{' '.join(argv)}: exit {proc.returncode}, expected {want}; "
                                f"stdout {proc.stdout[:200]!r}; stderr {err!r}")
    print(f"{len(runs) - len(failures)} of {len(runs)} fresh processes as pinned")
    if failures:
        sys.exit("\n".join(failures))


def test_reports_across_blas_thread_counts():
    # Between 1 and 2 BLAS threads only min_eigenvalue may move, and only
    # by rounding: the 596-row orbit Pick matrix's eigen-solve is the one
    # step whose bytes depend on the thread count.
    command = [sys.executable, "-m", "orbitpick.cli", "orbit-pick-check",
               str(DATA / "threads596_problem.json")]
    procs = [subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=dict(_fresh_env(), OPENBLAS_NUM_THREADS=threads))
             for threads in ("1", "2")]
    outputs = [proc.communicate(timeout=600) for proc in procs]
    assert [proc.returncode for proc in procs] == [1, 1], [err for _out, err in outputs]
    reports = [out for out, _err in outputs]
    field = re.compile(r'"min_eigenvalue": ([^,]+), ')
    one, two = reports
    # compared as a bool: pytest's diff of two 16 MB reports runs for minutes
    same = field.sub("", one, count=1) == field.sub("", two, count=1)
    assert same, "the reports differ beyond min_eigenvalue"
    m1, m2 = (float(field.search(report).group(1)) for report in reports)
    diagonal = max(row[i][0] for i, row in enumerate(json.loads(one)["matrix"]))
    assert abs(m1 - m2) <= 1e-10 * (1.0 + diagonal)


@pytest.mark.parametrize("argv", [
    ["pick-check", str(DATA / "even_problem.json")],
    ["verify", "--seed", "0"],  # logs each check on stderr
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # The reader closes its end before the report is written, as
    # ``orbitpick ... | head -c 10`` does to a report larger than the pipe;
    # stderr holds the command's own log and nothing more.
    command = [sys.executable, "-m", "orbitpick.cli", *argv]
    log = subprocess.run(command, capture_output=True, env=_fresh_env(), timeout=120).stderr
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_fresh_env()) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 141
    assert err == log


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
    # compared as a bool: pytest's diff of two reports of megabytes runs for minutes
    same = out == _reference_render(report) + "\n"
    assert same, "the report differs from the reference rendering"


# -- seeded mutation fuzz over the data files ------------------------------------

# huge, negative, zero, not finite, out of the disk, or an integer beyond
# the double range
_BAD_NUMBERS = [1e300, -1e300, -1, -0.5, 0, 1.5, float("nan"), float("inf"),
                float("-inf"), 10**400]
_BAD_VALUES = ["x", "", [], {}, None, True, 1, [[0.1]]]


def _paths(doc, prefix=()):
    """Every path to a dict value or list item below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_DELETE = object()


def _replace(doc, path, value):
    """A copy of ``doc`` with the item at ``path`` replaced, or deleted
    when ``value`` is ``_DELETE``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutants(text, rng):
    """One mutant of the JSON ``text`` for each kind of damage: a dropped
    key, a value of another type, a bad number, an emptied list and the
    text cut short."""
    doc = json.loads(text)
    paths = list(_paths(doc))

    def pick(candidates):
        return candidates[int(rng.integers(len(candidates)))]

    keyed = [p for p in paths if isinstance(_value(doc, p[:-1]), dict)]
    numbers = [p for p in paths if type(_value(doc, p)) in (int, float)]
    lists = [p for p in paths if isinstance(_value(doc, p), list)]
    yield json.dumps(_replace(doc, pick(keyed), _DELETE))
    yield json.dumps(_replace(doc, pick(paths), pick(_BAD_VALUES)))
    if numbers:
        yield json.dumps(_replace(doc, pick(numbers), pick(_BAD_NUMBERS)))
    if lists:
        yield json.dumps(_replace(doc, pick(lists), []))
    yield text[: int(rng.integers(len(text)))]


def _value(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _commands(doc):
    """The commands that read a problem file with these top-level keys."""
    if "nodes" in doc:
        scalar = ["kernel-gram", "pick-check", "pick-norm", "interpolate"]
        return scalar + (["orbit-pick-check"] if "group" in doc else [])
    if "point" in doc:
        return ["amenable-average"]
    return ["orbit", "character"] + (["blaschke-eval"] if "eval_points" in doc else [])


def test_mutated_problem_files_exit_cleanly(tmp_path, capsys):
    """Seeded damage to every data file, run through each command that
    reads the file: every exit is 0-3, nothing escapes main, and a
    refusal (exit 2 or 3) prints no report.  threads596 is left out:
    its 596-row commands take seconds each."""
    rng = np.random.default_rng(20260)
    path = tmp_path / "mutant.json"
    for source in sorted(DATA.glob("*_problem.json")):
        if source.name == "threads596_problem.json":
            continue
        text = source.read_text(encoding="utf-8")
        commands = _commands(json.loads(text))
        for _round in range(2):
            for mutant in _mutants(text, rng):
                path.write_text(mutant, encoding="utf-8")
                for command in commands:
                    code = main([command, str(path)])
                    out = capsys.readouterr().out
                    label = f"{command} on {source.name} mutated to {mutant[:200]}"
                    assert code in (0, 1, 2, 3), label
                    assert code < 2 or out == "", label


if __name__ == "__main__":
    check_fresh_processes()
