"""Command-line front end.

One subcommand per library capability; problem data comes from a UTF-8
JSON file validated against a small schema before any computation, the
report goes to stdout as JSON with fixed float formatting (17
significant digits, lossless for doubles), and logs go to stderr.

Exit codes: 0 = ok / feasible, 1 = well posed but infeasible,
2 = malformed input, 3 = numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import blaschke as bl
from . import kernels as kn
from . import linalg as la
from . import orbits as orb
from . import pick as pk
from .errors import (
    Infeasible,
    InputError,
    NumericalError,
    SchemaError,
)
from .mobius import DiskAutomorphism, canonicalize, disk_point, iterate_cyclic

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# deterministic JSON emission

def _emit(value, out=None) -> None:
    text = _render(value)
    print(text, file=out if out is not None else sys.stdout)


def _render(value) -> str:
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return f"[{_float_repr(c.real)}, {_float_repr(c.imag)}]"
    if isinstance(value, np.ndarray):
        return _render(value.tolist())
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _float_repr(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports must not contain non-finite numbers")
    return format(x, ".17g")


def _matrix_payload(entries: np.ndarray):
    return [[complex(v) for v in row] for row in np.asarray(entries)]


# ---------------------------------------------------------------------------
# schema helpers

def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _section(doc: dict, key: str, path: str = "$", required: bool = True):
    if key not in doc:
        if required:
            _fail(f"{path}.{key}", "required section is missing")
        return None
    return doc[key]


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if v != v or v in (float("inf"), float("-inf")):
        _fail(path, "number must be finite")
    return v


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _complex_pair(value, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected a [re, im] pair")
    return complex(_real(value[0], f"{path}[0]"), _real(value[1], f"{path}[1]"))


def _disk_pair(value, path: str) -> complex:
    z = _complex_pair(value, path)
    try:
        return disk_point(z)
    except InputError as exc:
        _fail(path, str(exc))


def _parse_group(doc: dict) -> orb.GroupPresentation:
    obj = _section(doc, "group")
    if not isinstance(obj, dict):
        _fail("$.group", "expected an object")
    kind = obj.get("kind")
    if kind == "cyclic" or kind == "z2z2":
        if "a" not in obj:
            _fail("$.group.a", "required for cyclic and z2z2 kinds")
        a = _real(obj["a"], "$.group.a")
        try:
            return orb.cyclic_group(a) if kind == "cyclic" else orb.z2z2_group(a)
        except InputError as exc:
            _fail("$.group.a", str(exc))
    if kind == "generic":
        gens = obj.get("generators")
        if not isinstance(gens, list) or not gens:
            _fail("$.group.generators", "expected a nonempty list")
        auto = []
        for i, g in enumerate(gens):
            path = f"$.group.generators[{i}]"
            if not isinstance(g, list) or len(g) != 4:
                _fail(path, "expected four [re, im] coefficients (p, q, r, s)")
            coeffs = [_complex_pair(c, f"{path}[{j}]") for j, c in enumerate(g)]
            try:
                auto.append(canonicalize(*coeffs))
            except InputError as exc:
                _fail(path, str(exc))
        try:
            return orb.generic_group(auto)
        except InputError as exc:
            _fail("$.group.generators", str(exc))
    _fail("$.group.kind", "expected 'cyclic', 'z2z2', or 'generic'")


def _parse_truncation(doc: dict, override_depth: int | None) -> tuple[int, bool]:
    obj = _section(doc, "truncation", required=False) or {}
    if not isinstance(obj, dict):
        _fail("$.truncation", "expected an object")
    depth = obj.get("depth", 60)
    depth = _integer(depth, "$.truncation.depth")
    strict = obj.get("strict", True)
    if not isinstance(strict, bool):
        _fail("$.truncation.strict", "expected a boolean")
    if override_depth is not None:
        depth = override_depth
    if depth < 0:
        _fail("$.truncation.depth", "depth must be nonnegative")
    return depth, strict


def _parse_nodes(doc: dict) -> tuple[complex, ...]:
    obj = _section(doc, "nodes")
    if not isinstance(obj, list) or not obj:
        _fail("$.nodes", "expected a nonempty list of [re, im] pairs")
    return tuple(_disk_pair(v, f"$.nodes[{i}]") for i, v in enumerate(obj))


def _parse_targets(doc: dict, n_nodes: int):
    obj = _section(doc, "targets")
    if not isinstance(obj, list) or not obj:
        _fail("$.targets", "expected a nonempty list")
    if len(obj) != n_nodes:
        _fail("$.targets", f"expected {n_nodes} entries to match the nodes")
    first = obj[0]
    if isinstance(first, list) and first and isinstance(first[0], list) and (
        first[0] and isinstance(first[0][0], list)
    ):
        mats = []
        for i, m in enumerate(obj):
            path = f"$.targets[{i}]"
            if not isinstance(m, list) or not m:
                _fail(path, "expected a square matrix of [re, im] pairs")
            k = len(m)
            rows = []
            for r, row in enumerate(m):
                if not isinstance(row, list) or len(row) != k:
                    _fail(f"{path}[{r}]", f"expected {k} entries")
                rows.append(
                    [_complex_pair(v, f"{path}[{r}][{c}]") for c, v in enumerate(row)]
                )
            mats.append(np.array(rows, dtype=complex))
        return tuple(mats)
    return tuple(_complex_pair(v, f"$.targets[{i}]") for i, v in enumerate(obj))


def _build_inner(doc: dict, depth: int, strict: bool, power_hint: int = 1):
    group = _parse_group(doc)
    orbit = orb.enumerate_orbit(group, 0j, depth)
    return group, orbit, bl.from_orbit(orbit, power_hint, strict=strict)


def _parse_kernel(doc: dict, args) -> kn.SzegoKernel | kn.ComposedInnerKernel | kn.OrbitGramKernel:
    obj = _section(doc, "kernel")
    if not isinstance(obj, dict):
        _fail("$.kernel", "expected an object")
    variant = obj.get("variant")
    if variant == "szego":
        return kn.SzegoKernel()
    if variant == "composed":
        power = _integer(obj.get("power", 1), "$.kernel.power")
        if power < 1:
            _fail("$.kernel.power", "power must be at least 1")
        depth, strict = _parse_truncation(doc, args.depth)
        _group, _orbit, inner = _build_inner(doc, depth, strict)
        try:
            return kn.ComposedInnerKernel(inner, power)
        except InputError as exc:
            _fail("$.kernel", str(exc))
    if variant == "orbit":
        depth = obj.get("depth")
        if depth is None:
            depth, _ = _parse_truncation(doc, args.depth)
        else:
            depth = _integer(depth, "$.kernel.depth")
            if args.depth is not None:
                depth = args.depth
        group = _parse_group(doc)
        return kn.OrbitGramKernel(group, depth)
    _fail("$.kernel.variant", "expected 'szego', 'composed', or 'orbit'")


# ---------------------------------------------------------------------------
# subcommands

def cmd_orbit(doc, args):
    group = _parse_group(doc)
    depth, _strict = _parse_truncation(doc, args.depth)
    base = doc.get("base", [0.0, 0.0])
    base = _disk_pair(base, "$.base")
    orbit = orb.enumerate_orbit(group, base, depth)
    payload = {
        "entries": [
            {"word": e.word, "point": e.point, "weight": e.weight}
            for e in orbit.entries
        ],
        "partial_sum": orbit.partial_sum,
        "tail_bound": orbit.tail_bound,
        "dropped_boundary_points": orbit.dropped,
        "stabilizer_order_origin": orb.stabilizer_order_origin(group),
    }
    if orbit.tail_bound is None:
        payload["note"] = "no convergence certificate for generic presentations"
    return payload, EXIT_OK


def cmd_blaschke_eval(doc, args):
    group = _parse_group(doc)
    depth, strict = _parse_truncation(doc, args.depth)
    pts_doc = _section(doc, "eval_points")
    if not isinstance(pts_doc, list) or not pts_doc:
        _fail("$.eval_points", "expected a nonempty list of [re, im] pairs")
    pts = [_disk_pair(v, f"$.eval_points[{i}]") for i, v in enumerate(pts_doc)]
    associated = doc.get("associated", False)
    if not isinstance(associated, bool):
        _fail("$.associated", "expected a boolean")
    m = orb.stabilizer_order_origin(group) if associated else 1
    orbit = orb.enumerate_orbit(group, 0j, depth)
    product = bl.from_orbit(orbit, m, strict=strict)
    values = []
    for z in pts:
        v, err = bl.evaluate(product, z)
        values.append({"point": z, "value": v, "error_bound": err})
    payload = {
        "origin_multiplicity": product.origin_multiplicity,
        "zero_count": len(product.zeros),
        "tail_weight": product.tail_weight,
        "tail_certified": product.tail_certified,
        "stabilizer_power": m,
        "values": values,
    }
    return payload, EXIT_OK


def cmd_character(doc, args):
    group = _parse_group(doc)
    depth, strict = _parse_truncation(doc, args.depth)
    associated = doc.get("associated", False)
    if not isinstance(associated, bool):
        _fail("$.associated", "expected a boolean")
    m = orb.stabilizer_order_origin(group) if associated else 1
    orbit = orb.enumerate_orbit(group, 0j, depth)
    product = bl.from_orbit(orbit, m, strict=strict)
    tol = args.tolerance if args.tolerance is not None else 1e-6
    reports = []
    for i, g in enumerate(group.generators):
        rep = bl.character_of(product, g, tol=tol)
        reports.append(
            {
                "generator": i,
                "value": rep.value,
                "consistency_residual": rep.consistency_residual,
            }
        )
    payload = {"stabilizer_power": m, "characters": reports}
    return payload, EXIT_OK


def cmd_kernel_gram(doc, args):
    kernel = _parse_kernel(doc, args)
    nodes = _parse_nodes(doc)
    g = kn.gram(kernel, nodes)
    rep = la.psd_check(la.HermitianMatrix(g.entries), tol=args.tolerance)
    payload = {
        "size": int(g.entries.shape[0]),
        "entries": _matrix_payload(g.entries),
        "truncation_note": g.truncation_note,
        "min_eigenvalue": rep.min_eigenvalue,
        "psd": rep.is_psd,
        "tolerance_used": rep.tolerance_used,
    }
    return payload, EXIT_OK


def _feasibility_payload(report: pk.FeasibilityReport):
    return {
        "psd": report.psd.is_psd,
        "min_eigenvalue": report.psd.min_eigenvalue,
        "tolerance_used": report.psd.tolerance_used,
        "matrix_size": report.matrix.n,
        "matrix": _matrix_payload(report.matrix.entries),
    }


def cmd_pick_check(doc, args):
    kernel = _parse_kernel(doc, args)
    nodes = _parse_nodes(doc)
    targets = _parse_targets(doc, len(nodes))
    problem = pk.PickProblem(nodes, targets, kernel)
    report = pk.feasibility(problem, tol=args.tolerance)
    return _feasibility_payload(report), (
        EXIT_OK if report.psd.is_psd else EXIT_INFEASIBLE
    )


def cmd_orbit_pick_check(doc, args):
    group = _parse_group(doc)
    depth, _strict = _parse_truncation(doc, args.depth)
    nodes = _parse_nodes(doc)
    targets = _parse_targets(doc, len(nodes))
    problem = pk.PickProblem(nodes, targets, kn.OrbitGramKernel(group, depth))
    report = pk.feasibility(problem, tol=args.tolerance)
    payload = _feasibility_payload(report)
    payload["depth"] = depth
    return payload, EXIT_OK if report.psd.is_psd else EXIT_INFEASIBLE


def cmd_pick_norm(doc, args):
    kernel = _parse_kernel(doc, args)
    nodes = _parse_nodes(doc)
    targets = _parse_targets(doc, len(nodes))
    if pk.PickProblem.is_matrix_valued(targets):
        _fail("$.targets", "the extremal norm is defined for scalar targets")
    value = pk.pick_norm(nodes, targets, kernel)
    return {"pick_norm": value}, EXIT_OK


def cmd_interpolate(doc, args):
    kernel = _parse_kernel(doc, args)
    nodes = _parse_nodes(doc)
    targets = _parse_targets(doc, len(nodes))
    if pk.PickProblem.is_matrix_valued(targets):
        _fail("$.targets", "interpolant construction is scalar only")
    grid_n = args.grid
    grid = 0.999 * np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    if isinstance(kernel, kn.ComposedInnerKernel):
        f = pk.interpolate_composed(nodes, targets, kernel.inner, kernel.power)
        schur = f.schur
        values = [pk.evaluate_composed(f, z) for z in nodes]
        sup = max(abs(pk.evaluate_composed(f, complex(z))) for z in grid)
        composition = {
            "power": kernel.power,
            "inner_origin_multiplicity": kernel.inner.origin_multiplicity,
            "inner_zero_count": len(kernel.inner.zeros),
            "inner_tail_weight": kernel.inner.tail_weight,
        }
    elif isinstance(kernel, kn.SzegoKernel):
        schur = pk.interpolate_disk(nodes, targets)
        values = [pk.evaluate_interpolant(schur, z) for z in nodes]
        sup = max(abs(pk.evaluate_interpolant(schur, complex(z))) for z in grid)
        composition = None
    else:
        _fail("$.kernel.variant", "interpolation needs the szego or composed kernel")
    residual = max(abs(v - w) for v, w in zip(values, targets))
    payload = {
        "interpolant": {
            "nodes": list(schur.nodes),
            "schur_parameters": list(schur.schur_parameters),
            "degenerate_rank": schur.degenerate_rank,
            "composition": composition,
        },
        "target_residual": residual,
        "grid_norm": sup,
        "grid_points": grid_n,
    }
    return payload, EXIT_OK


def cmd_amenable_average(doc, args):
    group = _parse_group(doc)
    point = _disk_pair(_section(doc, "point"), "$.point")
    power = _integer(_section(doc, "monomial_power"), "$.monomial_power")
    terms = _integer(doc.get("terms", 10_000), "$.terms")
    value = pk.amenable_average(group, point, power, terms)
    return {"average": value, "terms": terms, "monomial_power": power}, EXIT_OK


# ---------------------------------------------------------------------------
# built-in verification suite

def _verify_checks(seed: int, grid_n: int):
    rng = np.random.default_rng(seed)
    from .mobius import PROBE_GRID

    def automorphism_laws():
        f = iterate_cyclic(0.5, 1)
        g = canonicalize(2.0, 1.0j, -1.0j, 2.0)
        h = DiskAutomorphism(0j, 1.0 + 0j)
        worst = 0.0
        for z in PROBE_GRID:
            worst = max(worst, abs(f.compose(g).compose(h)(z) - f.compose(g.compose(h))(z)))
            worst = max(worst, abs(g.compose(g.inverse())(z) - z))
        return worst, worst <= 1e-12

    def closed_form_iteration():
        worst = 0.0
        for a in (0.3, 0.5, 0.7):
            g = iterate_cyclic(a, 1)
            fwd = DiskAutomorphism.identity()
            for n in range(1, 11):
                fwd = fwd.compose(g)
                cf = iterate_cyclic(a, n)
                for z in PROBE_GRID:
                    worst = max(worst, abs(cf(z) - fwd(z)))
        return worst, worst <= 1e-10

    def geometric_weight_bound():
        worst = -1.0
        ok = True
        for a in (0.3, 0.5, 0.7):
            q = (1 - a) / (1 + a)
            for n in range(1, 101):
                slack = 2 * q**n - orb.cyclic_orbit_weight(a, n)
                worst = max(worst, -slack)
                ok = ok and slack >= 0.0
        return worst, ok

    def orbit_sums():
        orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, 2)
        err = max(abs(orbit.partial_sum - 2.4), abs(orbit.tail_bound - 2.0 / 9.0))
        return err, err <= 1e-12

    def character_identity():
        orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, 120)
        product = bl.from_orbit(orbit, 1)
        rep = bl.character_of(product, iterate_cyclic(0.5, 1))
        err = abs(rep.value + 1.0)
        return err, err <= 1e-6

    def boundary_gram():
        mono = bl.BlaschkeProduct(1, (), 0.0)
        g1 = kn.boundary_gram_quadrature(mono, 3, 4096)
        e1 = float(np.max(np.abs(g1.entries - np.eye(4))))
        orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, 40)
        g2 = kn.boundary_gram_quadrature(bl.from_orbit(orbit, 1), 5, 8192)
        e2 = float(np.max(np.abs(g2.entries - np.eye(6))))
        return max(e1, e2), e1 <= 1e-8 and e2 <= 1e-6

    def szego_gram_example():
        g = kn.gram(kn.SzegoKernel(), [0j, -0.5 + 0j, 0.5 + 0j])
        expect = np.array([[1, 1, 1], [1, 4 / 3, 0.8], [1, 0.8, 4 / 3]])
        err = float(np.max(np.abs(g.entries - expect)))
        return err, err <= 1e-12 and la.psd_check(g.entries).is_psd

    def pick_verdicts():
        good = pk.feasibility(
            pk.PickProblem((0j, 0.5 + 0j), (0j, 0.5 + 0j), kn.SzegoKernel())
        )
        bad = pk.feasibility(
            pk.PickProblem((0j, 0.5 + 0j), (0j, 0.9 + 0j), kn.SzegoKernel())
        )
        ok = good.psd.is_psd and not bad.psd.is_psd
        return bad.psd.min_eigenvalue, ok

    def extremal_norm():
        value = pk.pick_norm((0j, 0.5 + 0j), (0j, 0.9 + 0j), kn.SzegoKernel())
        err = abs(value - 1.8)
        return err, err <= 1e-8

    def schur_roundtrip():
        worst = 0.0
        grid = 0.999 * np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            nodes = []
            while len(nodes) < n:
                z = complex(*(1.2 * (rng.random(2) - 0.5)))
                if abs(z) < 0.6 and all(abs(z - w) > 0.2 for w in nodes):
                    nodes.append(z)
            zeros = [complex(*(1.2 * (rng.random(2) - 0.5))) * 0.5 for _ in range(2)]
            phase = np.exp(2j * np.pi * rng.uniform())
            scale = 0.9

            def f(z):
                v = phase * scale
                for c in zeros:
                    v *= (z - c) / (1.0 - c.conjugate() * z)
                return v

            targets = tuple(f(z) for z in nodes)
            s = pk.interpolate_disk(tuple(nodes), targets)
            for z, w in zip(nodes, targets):
                worst = max(worst, abs(pk.evaluate_interpolant(s, z) - w))
            sup = max(abs(pk.evaluate_interpolant(s, complex(z))) for z in grid)
            worst = max(worst, sup - 1.0)
        return worst, worst <= 1e-8

    def psd_oracle():
        bad = 0
        checked = 0
        while checked < 200:
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a = 0.5 * (a + a.conj().T)
            if abs(la.min_eig(a)) < 1e-8:
                continue
            if la.psd_check(a).is_psd != la.brute_force_psd_3x3(a):
                bad += 1
            checked += 1
        return float(bad), bad == 0

    def amenable_averages():
        group = orb.cyclic_group(0.5)
        odd = abs(pk.amenable_average(group, 0.3 + 0j, 1, 10_000))
        even = abs(pk.amenable_average(group, 0.3 + 0j, 2, 10_000) - 1.0)
        return max(odd, even), odd <= 0.01 and even <= 0.01

    def composition_equivalence():
        orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, 60)
        inner = bl.from_orbit(orbit, 1)
        spec = kn.ComposedInnerKernel(inner, 2)
        nodes = (0.1 + 0.2j, -0.25 + 0.1j)
        targets = (0.2 + 0j, 0.4 - 0.1j)
        direct = pk.assemble_pick(pk.PickProblem(nodes, targets, spec)).entries
        zeta = tuple(spec.value(z) for z in nodes)
        pushed = pk.assemble_pick(
            pk.PickProblem(zeta, targets, kn.SzegoKernel())
        ).entries
        same = bool(np.array_equal(direct, pushed))
        return 0.0 if same else 1.0, same

    return [
        ("automorphism-group-laws", automorphism_laws),
        ("closed-form-iteration", closed_form_iteration),
        ("geometric-weight-bound", geometric_weight_bound),
        ("orbit-blaschke-sum", orbit_sums),
        ("character-identity", character_identity),
        ("boundary-gram-identity", boundary_gram),
        ("szego-gram-example", szego_gram_example),
        ("pick-verdicts", pick_verdicts),
        ("extremal-norm", extremal_norm),
        ("schur-roundtrip", schur_roundtrip),
        ("psd-oracle-agreement", psd_oracle),
        ("amenable-averages", amenable_averages),
        ("composition-equivalence", composition_equivalence),
    ]


def cmd_verify(args):
    seed = args.seed if args.seed is not None else 0
    checks = _verify_checks(seed, args.grid)
    results = []
    failures = 0
    for name, fn in checks:
        try:
            detail, ok = fn()
        except Exception as exc:  # a crash counts as a failure, with context
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            results.append({"name": name, "pass": False, "detail": None})
            failures += 1
            continue
        print(("ok   " if ok else "FAIL ") + name, file=sys.stderr)
        results.append(
            {"name": name, "pass": bool(ok), "detail": float(detail)}
        )
        if not ok:
            failures += 1
    payload = {
        "command": "verify",
        "version": __version__,
        "seed": seed,
        "checks": results,
        "passed": len(results) - failures,
        "failed": failures,
    }
    _emit(payload)
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# driver

_COMMANDS = {
    "orbit": cmd_orbit,
    "blaschke-eval": cmd_blaschke_eval,
    "character": cmd_character,
    "kernel-gram": cmd_kernel_gram,
    "pick-check": cmd_pick_check,
    "orbit-pick-check": cmd_orbit_pick_check,
    "pick-norm": cmd_pick_norm,
    "interpolate": cmd_interpolate,
    "amenable-average": cmd_amenable_average,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitpick",
        description="Pick interpolation for group-invariant disk algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["verify"]:
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument(
            "--tolerance", type=float, default=None,
            help="positivity tolerance override",
        )
        p.add_argument(
            "--depth", type=int, default=None, help="truncation depth override"
        )
        p.add_argument(
            "--grid", type=int, default=4096,
            help="norm-check grid size for interpolants",
        )
        p.add_argument(
            "--seed", type=int, default=None, help="seed for randomized checks"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read problem file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    if not isinstance(doc, dict):
        print("error: $: the problem file must hold a JSON object",
              file=sys.stderr)
        return EXIT_INPUT
    handler = _COMMANDS[args.command]
    try:
        payload, code = handler(doc, args)
    except Infeasible as exc:
        _emit({"command": args.command, "version": __version__,
               "feasible": False, "reason": str(exc)})
        return EXIT_INFEASIBLE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {"command": args.command, "version": __version__}
    report.update(payload)
    _emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
