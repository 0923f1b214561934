"""The four benchmark workloads.

Each workload is a fixed cycle of problem classes.  A problem's inputs
come from ``numpy.random.default_rng([seed, cycle, class])``, so a seed
always gives the same inputs and a run that stops after more or fewer
cycles sees the same first problems.  ``solve`` times the library calls
one problem needs (the only timed code) and ``check`` compares every
answer with the oracle afterwards.

Library functions are always looked up through their module at call
time (``pick.feasibility``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from orbitpick import blaschke, kernels, mobius, orbits, pick
from orbitpick.errors import InconclusiveCharacter, Infeasible, OrbitPickError

from . import oracle

# Character extraction probes the library uses by default.
CHARACTER_PROBES = tuple(0.37 * cmath.exp(2j * cmath.pi * k / 8) for k in range(8))


@dataclass
class Outcome:
    """Answers and timings of one problem, then the verdict of the checks."""

    latency_s: float = 0.0
    op_s: dict = field(default_factory=dict)  # operation -> seconds
    answers: dict = field(default_factory=dict)  # operation -> value or error
    attempted: int = 0
    failed: int = 0  # raised, wrong or outside the acceptance bounds
    wrong: int = 0  # returned an answer that contradicts the reference
    construct_failures: int = 0  # raised on data the oracle calls feasible
    norm_rel_err: list = field(default_factory=list)
    stdout_bytes: int = 0
    notes: list = field(default_factory=list)
    reference_s: float = 0.0  # reference kernel run right after the problem


class _Error:
    """An exception raised by the library, kept as the answer."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)
        self.infeasible = isinstance(exc, Infeasible)
        self.inconclusive = isinstance(exc, InconclusiveCharacter)

    def __repr__(self):
        return f"{self.kind}({self.message})"


def _call(fn, *args, **kwargs):
    """The value of one library call, or the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except OrbitPickError as exc:
        return _Error(exc)
    except Exception as exc:  # a crash inside the library is a failed answer
        return _Error(exc)


def _timed(out: Outcome, op: str, fn, *args, **kwargs):
    """Run one library operation, recording its wall time and its answer."""
    t0 = time.perf_counter()
    value = _call(fn, *args, **kwargs)
    out.op_s[op] = out.op_s.get(op, 0.0) + time.perf_counter() - t0
    out.answers[op] = value
    return value


def _fail(out: Outcome, note: str, wrong: bool = False) -> None:
    out.failed += 1
    out.wrong += int(wrong)
    out.notes.append(note)


def _group(kind: str, a: float):
    return orbits.cyclic_group(a) if kind == "cyclic" else orbits.z2z2_group(a)


def _feasible(cycle: int, index: int) -> bool:
    """Three problems in four have feasible data, in a pattern that gives
    every class the same share over four cycles."""
    return (cycle + index) % 4 != 3


# ---------------------------------------------------------------------------
# small-dense


class SmallDense:
    """Small scalar problems: a verdict, a norm and a construction each."""

    name = "small-dense"
    # (kernel, n).  Composed kernels with n >= 8 are the regime in which
    # the unpivoted Schur recursion is known to fail on feasible data.
    # Five cheap classes, five composed n = 8 in the middle and four
    # composed n = 12 on top: the median falls inside the middle block and
    # the tail (the 11th largest of 56) inside the top one, each a block
    # of like problems, so neither jumps between classes with the data.
    classes = (
        ("szego", 3), ("cyclic", 4), ("z2z2", 5), ("szego", 5), ("szego", 6),
        ("cyclic", 8), ("z2z2", 8), ("cyclic", 8), ("z2z2", 8), ("cyclic", 8),
        ("cyclic", 12), ("z2z2", 12), ("cyclic", 12), ("z2z2", 12),
    )

    def generate(self, seed: int, cycle: int, index: int) -> dict:
        kernel, n = self.classes[index]
        rng = np.random.default_rng([seed, cycle, index])
        c = oracle.draw_scale(rng, _feasible(cycle, index))
        prob = {"kernel": kernel, "n": n, "c": c}
        if kernel == "szego":
            nodes = oracle.random_disk_points(rng, n, 0.6, 0.15)
            zeros, phase = oracle.random_blaschke(rng, int(rng.integers(1, n)))
            zeta = np.array(nodes)
        else:
            a = float(rng.uniform(0.3, 0.7))
            depth = int(rng.integers(60, 121))
            power = int(rng.integers(1, 3))
            inner = oracle.orbit_zeros(kernel, a, depth)
            while True:
                nodes = oracle.random_disk_points(rng, n, 0.3, 0.05, box=True)
                zeta = oracle.product(inner, 1, nodes) ** power
                gaps = np.abs(zeta[:, None] - zeta[None, :]) + np.eye(n)
                if gaps.min() > 1e-7:  # pushed-forward nodes stay distinct
                    break
            # Degree 1: the pushed-forward nodes sit within about 1e-4 of
            # each other, where double precision resolves an extremal
            # function of degree d only to (spread)^(2d).
            zeros, phase = oracle.random_blaschke(rng, 1, 0.5)
            prob.update(a=a, depth=depth, power=power)
        targets = c * oracle.blaschke_values(zeros, phase, zeta)
        prob["nodes"] = tuple(complex(z) for z in nodes)
        prob["targets"] = tuple(complex(w) for w in targets)
        prob["g"] = (tuple(zeros), phase)
        prob["expected"] = oracle.expected_verdict(zeta, targets, c)
        return prob

    def solve(self, prob: dict) -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()
        nodes, targets = prob["nodes"], prob["targets"]
        inner = None
        if prob["kernel"] == "szego":
            spec = kernels.SzegoKernel()
        else:
            group = _group(prob["kernel"], prob["a"])
            inner = _call(lambda: blaschke.from_orbit(
                orbits.enumerate_orbit(group, 0j, prob["depth"]), 1))
            if isinstance(inner, _Error):
                out.answers.update(verdict=inner, norm=inner, construct=inner)
                out.latency_s = time.perf_counter() - t0
                return out
            spec = kernels.ComposedInnerKernel(inner, prob["power"])
        _timed(out, "verdict", lambda: pick.feasibility(
            pick.PickProblem(nodes, targets, spec)).psd.is_psd)
        _timed(out, "norm", pick.pick_norm, nodes, targets, spec)
        if inner is None:
            _timed(out, "construct", pick.interpolate_disk, nodes, targets)
        else:
            _timed(out, "construct", pick.interpolate_composed, nodes, targets,
                   inner, prob["power"])
        out.latency_s = time.perf_counter() - t0
        return out

    def check(self, prob: dict, out: Outcome) -> None:
        feasible = prob["c"] <= 1.0
        expected = prob["expected"]  # None: not decidable in double precision
        out.attempted += 3
        verdict = out.answers["verdict"]
        if isinstance(verdict, _Error):
            _fail(out, f"verdict raised {verdict}")
        elif expected is not None and verdict != expected:
            _fail(out, f"verdict {verdict} for c = {prob['c']:.3f}", wrong=True)
        norm = out.answers["norm"]
        if isinstance(norm, _Error):
            _fail(out, f"norm raised {norm}")
        else:
            out.norm_rel_err.append(abs(norm - prob["c"]) / prob["c"])
        f = out.answers["construct"]
        if isinstance(f, _Error):
            if feasible or not f.infeasible:
                out.construct_failures += int(feasible)
                _fail(out, f"construct raised {f} for c = {prob['c']:.3f}")
            return
        if expected is False:
            _fail(out, "construct returned an interpolant for infeasible data", True)
            return
        if prob["kernel"] == "szego":
            schur = f

            def inner(z):
                return z
        else:
            schur = f.schur
            zeros = np.array(f.inner.zeros, dtype=complex)

            def inner(z):
                return oracle.product(zeros, f.inner.origin_multiplicity, z) ** f.power

        ok, residual, sup = oracle.check_construction(
            schur.nodes, schur.schur_parameters, inner, prob["nodes"], prob["targets"])
        if not ok:
            _fail(out, f"construct residual {residual:.2e}, grid sup {sup:.17g}", True)

    def warm_up(self) -> None:
        self.solve(self.generate(0, 0, 0))
        self.solve(self.generate(0, 0, 1))


# ---------------------------------------------------------------------------
# orbit-block


class OrbitBlock:
    """Orbit-kernel verdicts on matrices of about 150 to 1,100 rows."""

    name = "orbit-block"
    NORM_MAX_ROWS = 320
    # (group kind, nominal a, depth, nodes); rows ~ nodes * 3.8 / a.
    classes = (
        ("cyclic", 0.10, 120, 2), ("z2z2", 0.10, 160, 2),
        ("cyclic", 0.05, 160, 3), ("z2z2", 0.05, 200, 3),
        ("cyclic", 0.02, 200, 3),
    )

    def generate(self, seed: int, cycle: int, index: int) -> dict:
        kind, a0, depth, k = self.classes[index]
        rng = np.random.default_rng([seed, cycle, index])
        a = float(a0 * rng.uniform(0.9, 1.1))
        c = oracle.draw_scale(rng, _feasible(cycle, index))
        nodes = oracle.random_disk_points(rng, k, 0.5, 0.1)
        # B is the untruncated orbit product of 0; B^2 is invariant under
        # the group, so c * B^2 is an invariant interpolant of norm c.
        b_inf = oracle.product(oracle.orbit_zeros(kind, a, None), 1, nodes)
        b_trunc = oracle.product(oracle.orbit_zeros(kind, a, depth), 1, nodes)
        rows = sum(oracle.kernel_orbit_size(kind, a, depth, z) for z in nodes)
        targets = c * b_inf**2
        # The composed kernel uses the depth-truncated product: its
        # verdict is known only where truncation moves no target.
        composed = None
        if float(np.max(np.abs(b_inf**2 - b_trunc**2))) <= 1e-14:
            composed = oracle.expected_verdict(b_trunc**2, targets, c)
        return {
            "kind": kind, "a": a, "depth": depth, "c": c, "rows": rows,
            "nodes": tuple(complex(z) for z in nodes),
            "targets": tuple(complex(w) for w in targets),
            "composed_expected": composed,
            "with_norm": rows <= self.NORM_MAX_ROWS,
        }

    def solve(self, prob: dict) -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()
        nodes, targets = prob["nodes"], prob["targets"]
        group = _group(prob["kind"], prob["a"])
        spec = kernels.OrbitGramKernel(group, prob["depth"])

        def verdict():
            rep = pick.feasibility(pick.PickProblem(nodes, targets, spec))
            return rep.psd.is_psd, rep.matrix.n

        _timed(out, "verdict", verdict)
        if prob["with_norm"]:
            _timed(out, "norm", pick.pick_norm, nodes, targets, spec)

        inner = _call(lambda: blaschke.from_orbit(
            orbits.enumerate_orbit(group, 0j, prob["depth"]), 1))
        if isinstance(inner, _Error):
            out.answers.update(composed=inner, character=inner, gram=inner)
        else:
            _timed(out, "composed", lambda: pick.feasibility(pick.PickProblem(
                nodes, targets, kernels.ComposedInnerKernel(inner, 2))).psd.is_psd)
            _timed(out, "character", lambda: [
                _call(blaschke.character_of, inner, g) for g in group.generators])
            _timed(out, "gram", kernels.boundary_gram_quadrature, inner, 3, 4096)
        out.latency_s = time.perf_counter() - t0
        return out

    def check(self, prob: dict, out: Outcome) -> None:
        feasible = prob["c"] <= 1.0
        out.attempted += 5 if prob["with_norm"] else 4
        verdict = out.answers["verdict"]
        if isinstance(verdict, _Error):
            _fail(out, f"orbit verdict raised {verdict}")
        else:
            psd, rows = verdict
            if rows != prob["rows"]:
                _fail(out, f"orbit matrix has {rows} rows, expected {prob['rows']}", True)
            # c * B^2 certifies feasibility; for c > 1 no verdict is known.
            if feasible and not psd:
                _fail(out, f"orbit verdict infeasible for c = {prob['c']:.3f}", True)
        if prob["with_norm"]:
            norm = out.answers["norm"]
            if isinstance(norm, _Error):
                _fail(out, f"orbit norm raised {norm}")
            elif norm > prob["c"] * (1.0 + 1e-8) + 1e-9:
                _fail(out, f"orbit norm {norm:.17g} above the certified {prob['c']:.17g}", True)
        composed = out.answers["composed"]
        if isinstance(composed, _Error):
            _fail(out, f"composed verdict raised {composed}")
        elif prob["composed_expected"] not in (None, composed):
            _fail(out, f"composed verdict {composed} for c = {prob['c']:.3f}", True)
        self._check_characters(prob, out)
        gram = out.answers["gram"]
        if isinstance(gram, _Error):
            _fail(out, f"boundary gram raised {gram}")
        else:
            err = float(np.max(np.abs(gram.entries - np.eye(4))))
            if err > 1e-6:
                _fail(out, f"boundary gram off the identity by {err:.2e}", True)

    def _check_characters(self, prob: dict, out: Outcome) -> None:
        answers = out.answers["character"]
        if isinstance(answers, _Error):
            _fail(out, f"character raised {answers}")
            return
        kind, a, depth = prob["kind"], prob["a"], prob["depth"]
        group_maps = _generator_maps(kind, a)
        zeros_n = oracle.orbit_zeros(kind, a, depth)
        zeros_inf = oracle.orbit_zeros(kind, a, None)
        probes = np.array(CHARACTER_PROBES)
        tail = _tail_weight(kind, a, depth)
        for rep, g in zip(answers, group_maps):
            images = g(probes)
            # True character from the untruncated product.
            ratios = oracle.product(zeros_inf, 1, images) / oracle.product(zeros_inf, 1, probes)
            sigma = complex(np.median(ratios.real), np.median(ratios.imag))
            # The library must answer when every probe value clears its
            # truncation bound tenfold with a factor-4 margin, and must
            # decline when one falls short with the same margin.
            margin = min(
                float(np.min(np.abs(oracle.product(zeros_n, 1, pts))
                             / (10.0 * tail * (1 + np.abs(pts)) / (1 - np.abs(pts)))))
                for pts in (probes, images)
            ) if tail > 0 else math.inf
            if isinstance(rep, _Error):
                if not rep.inconclusive or margin > 4.0:
                    _fail(out, f"character raised {rep} (margin {margin:.3g})")
            elif margin < 0.25:
                _fail(out, "character answered below its own error bound", True)
            elif abs(rep.value - sigma) > 1e-6:
                _fail(out, f"character {rep.value} differs from {sigma}", True)

    def warm_up(self) -> None:
        self.solve(self.generate(0, 0, 0))


def _tail_weight(kind: str, a: float, depth: int) -> float:
    """Geometric bound on the omitted Blaschke weight of the orbit of 0,
    as documented for the library's orbit tail bound."""
    q = (1.0 - abs(a)) / (1.0 + abs(a))
    if kind == "cyclic":
        return 4.0 * q ** (depth + 1) / (1.0 - q)
    return 8.0 * q ** (depth // 2 + 1) / (1.0 - q)


def _generator_maps(kind: str, a: float):
    """Vectorized generators in the library's order."""
    if kind == "cyclic":
        return [lambda z: (z - a) / (1.0 - a * z)]
    return [lambda z: -z, lambda z: (a - z) / (1.0 - a * z)]


# ---------------------------------------------------------------------------
# generic-bfs


class GenericBfs:
    """Breadth-first orbits of generic presentations: no linear algebra."""

    name = "generic-bfs"
    # (generators, depth, order of a rotation generator or 0)
    classes = ((2, 6, 0), (2, 5, 0), (3, 4, 0), (2, 6, 4), (2, 6, 0))
    PROBES = 6

    def generate(self, seed: int, cycle: int, index: int) -> dict:
        count, depth, rotation = self.classes[index]
        rng = np.random.default_rng([seed, cycle, index])
        coeffs = []
        for i in range(count):
            if i == 0 and rotation:
                p, q, r, s = cmath.exp(2j * cmath.pi / rotation), 0j, 0j, 1 + 0j
            else:
                # lam (alpha - z) / (1 - conj(alpha) z) as (pz + q)/(rz + s)
                alpha = rng.uniform(0.3, 0.6) * cmath.exp(2j * math.pi * rng.uniform())
                lam = cmath.exp(2j * math.pi * rng.uniform())
                p, q, r, s = -lam, lam * alpha, -alpha.conjugate(), 1 + 0j
            scale = rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.uniform())
            coeffs.append(tuple(scale * v for v in (p, q, r, s)))
        probes = oracle.random_disk_points(rng, self.PROBES, 0.9, 0.05)
        return {"coeffs": coeffs, "depth": depth, "rotation": rotation,
                "probes": tuple(probes)}

    def solve(self, prob: dict) -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()

        def orbit():
            gens = [mobius.canonicalize(*c) for c in prob["coeffs"]]
            group = orbits.generic_group(gens)
            return group, orbits.enumerate_orbit(group, 0j, prob["depth"])

        result = _timed(out, "orbit", orbit)
        if isinstance(result, _Error):
            out.latency_s = time.perf_counter() - t0
            return out
        group, orb = result
        out.answers["orbit"] = orb
        order = _timed(out, "stabilizer", orbits.stabilizer_order_origin, group,
                       max_word_length=min(prob["depth"], 6))

        def product():
            b = blaschke.from_orbit(orb, order, strict=False)
            return [blaschke.evaluate(b, z) for z in prob["probes"]]

        _timed(out, "product", product)
        out.latency_s = time.perf_counter() - t0
        return out

    def check(self, prob: dict, out: Outcome) -> None:
        out.attempted += 3
        orb = out.answers["orbit"]
        if isinstance(orb, _Error):
            _fail(out, f"orbit raised {orb}")
            return
        mats = [_matrix(c) for c in prob["coeffs"]]
        letters = {chr(97 + i): m for i, m in enumerate(mats)}
        letters.update({chr(65 + i): np.linalg.inv(m) for i, m in enumerate(mats)})
        pts = np.array([e.point for e in orb.entries])
        # each entry is its word applied to 0
        for e in orb.entries:
            m = np.eye(2, dtype=complex)
            for ch in e.word:
                m = m @ letters[ch]
            if _distance(m[0, 1] / m[1, 1], e.point) > 1e-8:
                _fail(out, f"orbit entry {e.word!r} is not its word's image of 0", True)
                return
        # entries are distinct ...
        if len(pts) > 1 and min(np.partition(block, 1, axis=1)[:, 1].min()
                                for block in _distances(pts, pts)) <= orb.dedup_tol:
            _fail(out, "orbit holds duplicate points", True)
        # ... and every reduced word up to the depth lands on one of them
        images = _word_images(letters, prob["depth"])
        nearest = np.concatenate([row.min(axis=1) for row in _distances(images, pts)])
        lost = int(np.sum((nearest > 1e-9) & (np.abs(images) < 1.0 - oracle.DISK_MARGIN)))
        if lost:
            _fail(out, f"{lost} word images are missing from the orbit", True)
        order = out.answers["stabilizer"]
        expected = prob["rotation"] or 1
        if isinstance(order, _Error):
            _fail(out, f"stabilizer raised {order}")
        elif order != expected:
            _fail(out, f"stabilizer order {order}, expected {expected}", True)
        values = out.answers["product"]
        if isinstance(values, _Error):
            _fail(out, f"product raised {values}")
            return
        power = order if isinstance(order, int) else 1
        nonzero = pts[np.abs(pts) > 1e-12]
        ref = oracle.product(nonzero, 1, np.array(prob["probes"])) ** power
        got = np.array([v for v, _ in values])
        errs = [err for _, err in values]
        if float(np.max(np.abs(got - ref))) > 1e-9 or any(e != 0.0 for e in errs):
            _fail(out, "orbit product values differ from the reference", True)

    def warm_up(self) -> None:
        prob = self.generate(0, 0, 1)
        prob["depth"] = 3
        self.solve(prob)


def _matrix(coeffs) -> np.ndarray:
    p, q, r, s = coeffs
    return np.array([[p, q], [r, s]], dtype=complex)


def _distance(z, w):
    return np.abs(z - w) / np.abs(1.0 - np.conj(w) * z)


def _distances(zs, ws, rows: int = 256):
    """Pseudo-hyperbolic distance matrix in blocks of rows, so checks
    stay small next to the library's own memory use."""
    for k in range(0, len(zs), rows):
        yield _distance(zs[k:k + rows, None], ws[None, :])


def _word_images(letters: dict, depth: int) -> np.ndarray:
    """Images of 0 under every reduced word of length 1..depth."""
    out = []
    frontier = [("", np.eye(2, dtype=complex))]
    for _ in range(depth):
        nxt = []
        for word, m in frontier:
            for ch, g in letters.items():
                if word and word[-1] == ch.swapcase():
                    continue
                mg = m @ g
                nxt.append((word + ch, mg))
                out.append(mg[0, 1] / mg[1, 1])
        frontier = nxt
    return np.array(out, dtype=complex)


# ---------------------------------------------------------------------------
# cli


class Cli:
    """Fresh ``orbitpick`` processes, one at a time."""

    name = "cli"
    classes = (
        "pick-check", "orbit-pick-check", "pick-norm", "interpolate",
        "verify", "kernel-gram", "orbit-pick-check-big",
    )

    def __init__(self, root: str, workdir: str, env: dict):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.in_process = False  # traced runs call cli.main in this process

    def generate(self, seed: int, cycle: int, index: int) -> dict:
        command = self.classes[index]
        rng = np.random.default_rng([seed, cycle, index])
        prob = {"command": command, "seed": seed * 1000 + cycle}
        if command == "verify":
            prob["argv"] = ["verify", "--seed", str(prob["seed"])]
            return prob
        path = os.path.join(self.workdir, f"{command}.json")
        if command == "kernel-gram":
            a = float(rng.uniform(0.3, 0.7))
            nodes = oracle.random_disk_points(rng, 8, 0.3, 0.05, box=True)
            phi = oracle.product(oracle.orbit_zeros("cyclic", a, 60), 1, nodes) ** 2
            doc = {"group": {"kind": "cyclic", "a": a},
                   "truncation": {"depth": 60, "strict": True},
                   "kernel": {"variant": "composed", "power": 2}}
            prob["expected_gram"] = 1.0 / (1.0 - phi[:, None] * np.conj(phi)[None, :])
            argv = ["kernel-gram", path]
        elif command == "orbit-pick-check-big":
            # about 450 rows: three nodes, ~150 orbit points each
            kind, a, depth = "cyclic", 0.05, 120
            nodes = oracle.random_disk_points(rng, 3, 0.5, 0.1)
            c = oracle.draw_scale(rng, True)
            b = oracle.product(oracle.orbit_zeros(kind, a, None), 1, nodes)
            doc = {"group": {"kind": kind, "a": a},
                   "truncation": {"depth": depth, "strict": True},
                   "targets": _pairs(c * b**2)}
            prob["rows"] = sum(oracle.kernel_orbit_size(kind, a, depth, z) for z in nodes)
            argv = ["orbit-pick-check", path]
        else:
            # The README example: two nodes in the even algebra of z2z2.
            a = float(rng.uniform(0.4, 0.6))
            nodes = oracle.random_disk_points(rng, 2, 0.4, 0.1)
            c = oracle.draw_scale(rng, True)
            b = oracle.product(oracle.orbit_zeros("z2z2", a, None), 1, nodes)
            doc = {"group": {"kind": "z2z2", "a": a},
                   "truncation": {"depth": 120, "strict": True},
                   "targets": _pairs(c * b**2),
                   "kernel": {"variant": "composed", "power": 2}}
            prob.update(c=c, a=a, targets=c * b**2)
            flags = {"orbit-pick-check": ["--depth", "200"],
                     "interpolate": ["--grid", "4096"]}.get(command, [])
            argv = [command, path, *flags]
            if command == "orbit-pick-check":
                prob["rows"] = sum(oracle.kernel_orbit_size("z2z2", a, 200, z) for z in nodes)
        doc["nodes"] = _pairs(nodes)
        prob["doc"] = doc
        prob["nodes"] = tuple(nodes)
        prob["argv"] = argv
        prob["path"] = path
        return prob

    def prepare(self, prob: dict) -> None:
        if "doc" in prob:
            with open(prob["path"], "w", encoding="utf-8") as fh:
                json.dump(prob["doc"], fh)

    def solve(self, prob: dict) -> Outcome:
        out = Outcome()
        if self.in_process:
            code, stdout = self._main(prob["argv"], out)
        else:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "orbitpick.cli", *prob["argv"]],
                cwd=self.root, env=self.env, capture_output=True, check=False)
            out.latency_s = time.perf_counter() - t0
            code, stdout = proc.returncode, proc.stdout
        out.op_s["cmd"] = out.latency_s
        out.stdout_bytes = len(stdout)
        out.answers["cmd"] = (code, stdout)
        return out

    def _main(self, argv, out: Outcome):
        import contextlib
        import io

        from orbitpick import cli

        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out.latency_s = time.perf_counter() - t0
        return code, buf.getvalue().encode()

    def check(self, prob: dict, out: Outcome) -> None:
        out.attempted += 1
        code, stdout = out.answers["cmd"]
        command = prob["command"]
        if code != 0:
            _fail(out, f"{command} exited {code}")
            return
        try:
            report = json.loads(stdout)
        except ValueError:
            _fail(out, f"{command} printed no JSON report", True)
            return
        if command == "verify":
            if report.get("failed") != 0:
                _fail(out, f"verify reported {report.get('failed')} failed checks", True)
        elif command in ("pick-check", "orbit-pick-check", "orbit-pick-check-big"):
            rows = prob.get("rows", 2)
            if report.get("psd") is not True or report.get("matrix_size") != rows:
                _fail(out, f"{command}: psd {report.get('psd')}, size "
                      f"{report.get('matrix_size')} (expected {rows})", True)
        elif command == "pick-norm":
            out.norm_rel_err.append(abs(report["pick_norm"] - prob["c"]) / prob["c"])
        elif command == "interpolate":
            zeros = oracle.orbit_zeros("z2z2", prob["a"], 120)
            interp = report["interpolant"]
            ok, residual, sup = oracle.check_construction(
                [complex(*z) for z in interp["nodes"]],
                [complex(*r) for r in interp["schur_parameters"]],
                lambda z: oracle.product(zeros, 1, z) ** 2,
                prob["nodes"], prob["targets"])
            if not ok:
                _fail(out, f"interpolate residual {residual:.2e}, sup {sup:.17g}", True)
        elif command == "kernel-gram":
            got = np.array([[complex(*v) for v in row] for row in report["entries"]])
            expected = prob["expected_gram"]
            if got.shape != expected.shape or float(
                    np.max(np.abs(got - expected))) > 1e-10 * float(np.max(np.abs(expected))):
                _fail(out, "kernel-gram entries differ from the reference", True)

    def warm_up(self) -> None:
        prob = self.generate(0, 0, 0)
        self.prepare(prob)
        self.solve(prob)


def _pairs(values):
    return [[float(complex(v).real), float(complex(v).imag)] for v in values]
