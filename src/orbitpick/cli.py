"""Command-line front end.

One subcommand per library capability, each accepting only the options
it reads (``_COMMANDS``); ``verify`` runs ``checks.battery``.  Problem
data comes from a UTF-8 JSON file validated against a small schema
before any computation, the report goes to stdout as JSON with fixed
float formatting (17 significant digits, lossless for doubles), and
logs go to stderr.

Exit codes: 0 = ok / feasible, 1 = well posed but infeasible,
2 = malformed input or options, 3 = numerical failure (an overflowing
power or an impossible array size among them), failed check or out of
memory, 141 = stdout closed before the report was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, checks
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
from .mobius import _modulus, canonicalize, disk_point

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ended


# ---------------------------------------------------------------------------
# deterministic JSON emission

_NON_FINITE = "reports must not contain non-finite numbers"


def _emit(value) -> None:
    print(_render(value))


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
        if value.ndim != 2 or value.dtype.kind != "c":
            return _render(value.tolist())
        # A complex matrix a row at a time; "%.17g" % x is format(x, ".17g").
        parts = np.ascontiguousarray(value, dtype=complex).view(float)
        if not np.isfinite(parts).all():
            raise ValueError(_NON_FINITE)
        row = "[" + ", ".join(["[%.17g, %.17g]"] * value.shape[1]) + "]"
        return "[" + ", ".join([row % tuple(r) for r in parts.tolist()]) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _float_repr(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(_NON_FINITE)
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# schema helpers

def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _section(doc: dict, key: str):
    if key not in doc:
        _fail(f"$.{key}", "required section is missing")
    return doc[key]


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:  # an integer literal beyond the double range
        v = math.inf
    if not math.isfinite(v):
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


def _truncation(doc: dict, args) -> tuple[orb.GroupPresentation, int, bool]:
    """The file's group, the depth of every orbit the command truncates
    (``--depth`` if given, else ``$.truncation.depth``, default 60; a
    generic presentation has no default, as its breadth-first search to
    depth 60 runs for more than 10 s) and the strict flag."""
    group = _parse_group(doc)
    obj = doc.get("truncation", {})
    if not isinstance(obj, dict):
        _fail("$.truncation", "expected an object")
    if "depth" not in obj and group.kind == orb.GENERIC and args.depth is None:
        _fail("$.truncation.depth", "a generic presentation needs an explicit depth")
    depth = _integer(obj.get("depth", 60), "$.truncation.depth")
    strict = obj.get("strict", True)
    if not isinstance(strict, bool):
        _fail("$.truncation.strict", "expected a boolean")
    kernel = doc.get("kernel")
    if isinstance(kernel, dict) and "depth" in kernel:
        _fail("$.kernel.depth", "the orbit depth is set by $.truncation.depth or --depth")
    if args.depth is not None:
        depth = args.depth
    if depth < 0:
        _fail("$.truncation.depth", "depth must be nonnegative")
    return group, depth, strict


def _stabilizer_order(group: orb.GroupPresentation, depth: int) -> int:
    # words up to the orbit's depth (at most 8), which its own search has found
    return orb.stabilizer_order_origin(group, max_word_length=min(depth, 8))


def _disk_points(doc: dict, key: str) -> tuple[complex, ...]:
    """The nonempty list of [re, im] disk points at ``$.key``."""
    obj = _section(doc, key)
    if not isinstance(obj, list) or not obj:
        _fail(f"$.{key}", "expected a nonempty list of [re, im] pairs")
    return tuple(_disk_pair(v, f"$.{key}[{i}]") for i, v in enumerate(obj))


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
        group, depth, strict = _truncation(doc, args)
        orbit = orb.enumerate_orbit(group, 0j, depth)
        inner = bl.from_orbit(orbit, 1, strict=strict)
        try:
            return kn.ComposedInnerKernel(inner, power)
        except InputError as exc:
            _fail("$.kernel", str(exc))
    if variant == "orbit":
        return _orbit_kernel(doc, args)
    _fail("$.kernel.variant", "expected 'szego', 'composed', or 'orbit'")


def _orbit_kernel(doc: dict, args) -> kn.OrbitGramKernel:
    group, depth, _strict = _truncation(doc, args)
    return kn.OrbitGramKernel(group, depth)


def _pick_data(doc: dict, args, kernel=None):
    """(nodes, targets, kernel) of a Pick problem, parsed kernel first:
    ``kernel`` defaults to the one the file's kernel section gives."""
    if kernel is None:
        kernel = _parse_kernel(doc, args)
    nodes = _disk_points(doc, "nodes")
    return nodes, _parse_targets(doc, len(nodes)), kernel


# ---------------------------------------------------------------------------
# subcommands

def cmd_orbit(doc, args):
    group, depth, _strict = _truncation(doc, args)
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
        "stabilizer_order_origin": _stabilizer_order(group, depth),
    }
    if orbit.tail_bound is None:
        payload["note"] = "no convergence certificate for generic presentations"
    return payload, EXIT_OK


def _orbit_product(doc, args):
    """The group, the stabilizer power m (1 unless ``associated``) and
    the Blaschke product of the orbit of 0, each zero taken m times."""
    group, depth, strict = _truncation(doc, args)
    associated = doc.get("associated", False)
    if not isinstance(associated, bool):
        _fail("$.associated", "expected a boolean")
    orbit = orb.enumerate_orbit(group, 0j, depth)
    m = _stabilizer_order(group, depth) if associated else 1
    return group, m, bl.from_orbit(orbit, m, strict=strict)


def cmd_blaschke_eval(doc, args):
    pts = _disk_points(doc, "eval_points")
    _group, m, product = _orbit_product(doc, args)
    vals, errs = bl.evaluate_many(product, pts)
    values = [
        {"point": z, "value": v, "error_bound": err}
        for z, v, err in zip(pts, vals.tolist(), errs.tolist())
    ]
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
    group, m, product = _orbit_product(doc, args)
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
    nodes = _disk_points(doc, "nodes")
    g = kn.gram(kernel, nodes)
    rep = la.psd_check(la.HermitianMatrix._adopt(g.entries), tol=args.tolerance)
    payload = {
        "size": int(g.entries.shape[0]),
        "entries": g.entries,
        "truncation_note": g.truncation_note,
        "min_eigenvalue": rep.min_eigenvalue,
        "psd": rep.is_psd,
        "tolerance_used": rep.tolerance_used,
    }
    return payload, EXIT_OK


def cmd_pick_check(doc, args, kernel=None):
    problem = pk.PickProblem(*_pick_data(doc, args, kernel))
    report = pk.feasibility(problem, tol=args.tolerance)
    payload = {
        "psd": report.psd.is_psd,
        "min_eigenvalue": report.psd.min_eigenvalue,
        "tolerance_used": report.psd.tolerance_used,
        "matrix_size": report.matrix.n,
        "matrix": report.matrix.entries,
    }
    return payload, EXIT_OK if report.psd.is_psd else EXIT_INFEASIBLE


def cmd_orbit_pick_check(doc, args):
    kernel = _orbit_kernel(doc, args)
    payload, code = cmd_pick_check(doc, args, kernel)
    return {**payload, "depth": kernel.depth}, code


def cmd_pick_norm(doc, args):
    value = pk.pick_norm(*_pick_data(doc, args))
    return {"pick_norm": value}, EXIT_OK


def cmd_interpolate(doc, args):
    nodes, targets, kernel = _pick_data(doc, args)
    grid_n = args.grid
    grid = bl.EVAL_RADIUS_LIMIT * np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    if isinstance(kernel, kn.ComposedInnerKernel):
        f = pk.interpolate_composed(nodes, targets, kernel.inner, kernel.power)
        schur = f.schur
        values_at = pk.composed_values
        composition = {
            "power": kernel.power,
            "inner_origin_multiplicity": kernel.inner.origin_multiplicity,
            "inner_zero_count": len(kernel.inner.zeros),
            "inner_tail_weight": kernel.inner.tail_weight,
        }
    elif isinstance(kernel, kn.SzegoKernel):
        f = schur = pk.interpolate_disk(nodes, targets)
        values_at = pk.interpolant_values
        composition = None
    else:
        _fail("$.kernel.variant", "interpolation needs the szego or composed kernel")
    values = values_at(f, nodes).tolist()
    on_grid = values_at(f, grid)
    sup = float(np.max(_modulus(on_grid)))
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
    if power < 0:
        _fail("$.monomial_power", "monomial power must be nonnegative")
    terms = _integer(doc.get("terms", 10_000), "$.terms")
    if terms < 0:
        _fail("$.terms", "the window size must be nonnegative")
    value = pk.amenable_average(group, point, power, terms)
    return {"average": value, "terms": terms, "monomial_power": power}, EXIT_OK


# ---------------------------------------------------------------------------
# built-in verification suite

def cmd_verify(doc, args):
    results = []
    for name, fn in checks.battery(args.seed, args.grid):
        try:
            detail, ok = fn()
        except Exception as exc:  # a crash counts as a failure, with context
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            results.append({"name": name, "pass": False, "detail": None})
            continue
        print(("ok   " if ok else "FAIL ") + name, file=sys.stderr)
        results.append(
            {"name": name, "pass": bool(ok), "detail": float(detail)}
        )
    failures = sum(not r["pass"] for r in results)
    payload = {
        "seed": args.seed,
        "checks": results,
        "passed": len(results) - failures,
        "failed": failures,
    }
    return payload, EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# driver

def _at_least(low: int):
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


def _positive_finite(text: str) -> float:
    x = float(text)
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return x


_OPTIONS = {
    "--tolerance": dict(
        type=_positive_finite, default=None, help="positivity tolerance override"
    ),
    "--depth": dict(type=_at_least(0), default=None, help="truncation depth override"),
    "--grid": dict(type=_at_least(1), default=4096, help="norm-check grid size"),
    "--seed": dict(type=_at_least(0), default=0, help="seed for randomized checks"),
}

# each command with the options it reads
_COMMANDS = {
    "orbit": (cmd_orbit, ("--depth",)),
    "blaschke-eval": (cmd_blaschke_eval, ("--depth",)),
    "character": (cmd_character, ("--tolerance", "--depth")),
    "kernel-gram": (cmd_kernel_gram, ("--tolerance", "--depth")),
    "pick-check": (cmd_pick_check, ("--tolerance", "--depth")),
    "orbit-pick-check": (cmd_orbit_pick_check, ("--tolerance", "--depth")),
    "pick-norm": (cmd_pick_norm, ("--depth",)),
    "interpolate": (cmd_interpolate, ("--depth", "--grid")),
    "amenable-average": (cmd_amenable_average, ()),
    "verify": (cmd_verify, ("--grid", "--seed")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitpick",
        description="Pick interpolation for group-invariant disk algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("problem", help="path to a JSON problem file")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _read_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError("$: the problem file must hold a JSON object")
    return doc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _flags = _COMMANDS[args.command]
    try:
        doc = _read_problem(args.problem) if "problem" in args else None
        payload, code = handler(doc, args)
    except Infeasible as exc:
        payload, code = {"feasible": False, "reason": str(exc)}, EXIT_INFEASIBLE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, OverflowError, ValueError) as exc:
        # Past the schema checks the library reports bad input only as
        # InputError: a ValueError here is numpy or math refusing the
        # computation (an impossible array size, or LinAlgError from an
        # eigen-solve that does not converge).
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a depth, grid or window too large to allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {"command": args.command, "version": __version__}
    report.update(payload)
    try:
        _emit(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early ("Note on SIGPIPE" in Python's
        # signal documentation): send what is still buffered to devnull,
        # so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
