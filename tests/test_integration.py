"""Cross-module and process-level checks."""

import ast
import json
import subprocess
import sys

import numpy as np
import pytest

import orbitpick
from orbitpick.blaschke import from_orbit
from orbitpick.errors import OrbitExplosion
from orbitpick.kernels import ComposedInnerKernel, OrbitGramKernel, SzegoKernel, gram
from orbitpick.linalg import min_eig, psd_check
from orbitpick.orbits import cyclic_group, enumerate_orbit, z2z2_group
from orbitpick.pick import PickProblem, assemble_pick, pick_norm


def test_exports_are_the_imported_names():
    # a stale string in __all__ breaks only `from orbitpick import *`
    with open(orbitpick.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(orbitpick.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in orbitpick.__all__:
        assert getattr(orbitpick, name) is not None


def test_orbit_cap_raises():
    with pytest.raises(OrbitExplosion):
        enumerate_orbit(cyclic_group(0.5), 0j, 30, max_points=5)


def test_gram_with_orbit_kernel_blocks():
    spec = OrbitGramKernel(cyclic_group(0.5), 1)
    g = gram(spec, [0j, 0.2 + 0.1j])
    # each point contributes its 3-point truncated orbit
    assert g.entries.shape == (6, 6)
    assert np.max(np.abs(g.entries - g.entries.conj().T)) == 0.0
    assert min_eig(g.entries) >= -1e-10 * (1 + np.max(g.entries.diagonal().real))
    assert g.truncation_note is not None


def test_matrix_orbit_pick_is_kron_of_scalar():
    w = [0.2 + 0.1j, -0.4 + 0.2j]
    nodes = (0.1 + 0j, -0.2 + 0.3j)
    kernel = OrbitGramKernel(z2z2_group(0.5), 6)
    scalar = assemble_pick(PickProblem(nodes, tuple(w), kernel)).entries
    mats = tuple(x * np.eye(2) for x in w)
    block = assemble_pick(PickProblem(nodes, mats, kernel)).entries
    assert np.max(np.abs(block - np.kron(scalar, np.eye(2)))) <= 1e-13


def test_matrix_valued_feasibility_verdicts():
    # diagonal matrix data built from two genuinely even functions is
    # feasible; pushing one singular value above 1 breaks it
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 80)
    b = from_orbit(orbit, 1)
    spec = ComposedInnerKernel(b, 2)
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.25 - 0.2j)

    def target(z, s1, s2):
        u = spec.value(z)
        return np.array([[s1 * u, 0.0], [0.0, s2 * u * u]])

    good = tuple(target(z, 0.9, 0.8) for z in nodes)
    rep = psd_check(assemble_pick(PickProblem(nodes, good, spec)).entries)
    assert rep.is_psd

    bad = tuple(target(z, 0.9, 0.8) + np.array([[0, 0], [1.4, 0]]) for z in nodes)
    rep = psd_check(assemble_pick(PickProblem(nodes, bad, spec)).entries)
    assert not rep.is_psd


def test_pick_norm_composed_matches_pushforward():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 80)
    b = from_orbit(orbit, 1)
    spec = ComposedInnerKernel(b, 2)
    nodes = (0.1 + 0.2j, -0.25 + 0.1j, 0.3 - 0.3j)
    targets = (0.52 + 0j, 0.4 - 0.1j, -0.3 + 0.2j)
    direct = pick_norm(nodes, targets, spec)
    zeta = tuple(spec.value(z) for z in nodes)
    pushed = pick_norm(zeta, targets, SzegoKernel())
    assert abs(direct - pushed) <= 1e-9


def test_pick_norm_orbit_kernel_bounds_szego_norm():
    # the orbit condition constrains more points, so its extremal norm
    # dominates the single-orbit-free disk norm
    nodes = (0.1 + 0.2j, -0.25 + 0.1j)
    targets = (0.3 + 0j, -0.2 + 0.4j)
    disk = pick_norm(nodes, targets, SzegoKernel())
    orbit = pick_norm(nodes, targets, OrbitGramKernel(z2z2_group(0.5), 40))
    assert orbit >= disk - 1e-9


def test_cli_matrix_targets(tmp_path):
    doc = {
        "nodes": [[0.0, 0.0], [0.5, 0.0]],
        "targets": [
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        ],
        "kernel": {"variant": "szego"},
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(doc))
    from orbitpick.cli import main

    assert main(["pick-check", str(path)]) == 0


def test_cli_process_roundtrip(tmp_path):
    doc = {
        "nodes": [[0.0, 0.0], [0.5, 0.0]],
        "targets": [[0.0, 0.0], [0.9, 0.0]],
        "kernel": {"variant": "szego"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitpick.cli", "pick-check", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["psd"] is False
    proc2 = subprocess.run(
        [sys.executable, "-m", "orbitpick.cli", "pick-norm", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc2.returncode == 0
    assert abs(json.loads(proc2.stdout)["pick_norm"] - 1.8) <= 1e-8


@pytest.mark.parametrize("a", [0.3, 0.7])
def test_condition_equivalence_other_parameters(a):
    # smaller version of the depth-200 agreement run at other group
    # parameters
    from conftest import random_finite_blaschke, random_nodes

    rng = np.random.default_rng(int(a * 1000))
    orbit = enumerate_orbit(cyclic_group(a), 0j, 200)
    b = from_orbit(orbit, 1)
    spec = ComposedInnerKernel(b, 2)
    group = z2z2_group(a)
    agree = 0
    for k in range(20):
        while True:
            nodes = random_nodes(rng, 2)
            if k % 2 == 0:
                g = random_finite_blaschke(rng)
                s = rng.uniform(0.3, 0.95)
                targets = tuple(s * g(spec.value(z)) for z in nodes)
            else:
                targets = tuple(
                    complex(*(2.2 * (rng.random(2) - 0.5))) for _ in range(2)
                )
            problem = PickProblem(nodes, targets, spec)
            mat = assemble_pick(problem)
            rep = psd_check(mat)
            scale = 1.0 + max(float(np.max(mat.entries.diagonal().real)), 0.0)
            if abs(rep.min_eigenvalue) >= 1e-6 * scale:
                break
        rep2 = psd_check(
            assemble_pick(PickProblem(nodes, targets, OrbitGramKernel(group, 200)))
        )
        agree += rep.is_psd == rep2.is_psd
    assert agree == 20


def test_cli_reports_identical_across_processes(tmp_path):
    doc = {
        "group": {"kind": "z2z2", "a": 0.5},
        "truncation": {"depth": 60},
        "nodes": [[0.1, 0.2], [-0.25, 0.1]],
        "targets": [[0.2, 0.0], [0.2, 0.0]],
        "kernel": {"variant": "composed", "power": 2},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "orbitpick.cli", "interpolate", str(path),
             "--grid", "512"],
            capture_output=True,
            text=True,
        ).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1] and outs[0]
