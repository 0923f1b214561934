"""Layer tracing from outside the library.

The tracer replaces each layer function by a wrapper under every name
the library, the CLI and the benchmark use to reach it (module globals,
names imported into other modules, class attributes), and restores the
originals afterwards.  A wrapper records a span (name, start, end,
parent); a layer's self time is its spans' durations minus the part
covered by their child spans.  Leaf functions called up to millions of
times per problem are counted, not timed, so their time stays with the
caller's span.

Spans are kept in flat arrays in memory and reduced when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("mobius", "orbits", "blaschke", "kernels", "linalg", "pick", "cli")

# Leaf functions counted, not timed.
COUNTED = {
    "mobius.pseudo_hyperbolic", "mobius.disk_point", "mobius._clamp_inside",
    "mobius._normalized", "mobius.DiskAutomorphism.__call__",
    "mobius.DiskAutomorphism.derivative", "mobius.DiskAutomorphism.inverse",
    "mobius.DiskAutomorphism.__post_init__", "mobius.DiskAutomorphism.is_identity",
    "orbits._same_element", "orbits._Collector.offer", "orbits._alternating_word",
    "kernels.szego", "linalg._as_matrix",
    "cli._render", "cli._float_repr", "cli._real", "cli._complex_pair",
    "cli._integer", "cli._disk_pair",
}

SMALL_EIG = 16  # matrices up to this size take the library's Jacobi path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.active = Counter()  # name -> open spans
        self.counts = Counter()
        self.sums = Counter()
        self.maxima = Counter()
        self.leaf_counts: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def _close(self, idx: int, name: str) -> float:
        end = time.perf_counter()
        self.span_end[idx] = end
        self.stack.pop()
        self.active[name] -= 1
        return end - self.span_start[idx]

    def root(self, fn, *args):
        """Run ``fn`` as a benchmark root span; returns (value, seconds)."""
        idx = self._open("bench.problem")
        try:
            value = fn(*args)
        finally:
            dur = self._close(idx, "bench.problem")
        return value, dur

    def _timed_wrapper(self, fn, name):
        post = _POST.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            mark = tracer.sums["orbits.points"]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, name)
                tracer.counts[name + "!raised"] += 1
                raise
            dur = tracer._close(idx, name)
            tracer.counts[name] += 1
            if post is not None:
                post(tracer, args, result, dur, mark)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_wrapper(self, fn, key):
        # Called up to tens of millions of times: positional arguments
        # only (every counted leaf is called that way) and a bare cell.
        cell = self.leaf_counts.setdefault(key, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function under every name it is reached by."""
        import orbitpick

        modules = {layer: importlib.import_module(f"orbitpick.{layer}") for layer in LAYERS}
        owners = [orbitpick, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    for owner in owners:
                        for bound, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, bound, obj, f"{layer}.{attr}",
                                            owner.__name__)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                            self._patch(obj, meth, fn, f"{layer}.{attr}.{meth}", None)

    def _patch(self, owner, attr, fn, name, binder) -> None:
        if inspect.isgeneratorfunction(fn):
            return
        if name in COUNTED:
            # distance checks made by the orbit enumeration are an orbits count
            key = "orbits.distance_calls" if (
                binder == "orbitpick.orbits" and name == "mobius.pseudo_hyperbolic"
                or name == "orbits._same_element") else name
            wrapper = self._counting_wrapper(fn, key)
        else:
            wrapper = self._timed_wrapper(fn, name)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        for key, cell in self.leaf_counts.items():
            self.counts[key] += cell[0]
            cell[0] = 0

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> tuple[dict, float]:
        """Self time per layer (plus the benchmark's own 'bench' share)
        and the total duration of the root spans."""
        n = len(self.span_start)
        if n == 0:
            return {}, 0.0
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        layer_of = np.array([name.split(".", 1)[0] for name in self.names])
        out = {}
        for layer in set(layer_of):
            out[str(layer)] = float(np.sum(own[layer_of[names] == layer]))
        wall = float(np.sum(dur[~has_parent]))
        return out, wall


def _dimension(a) -> int:
    entries = getattr(a, "entries", a)
    return int(np.shape(entries)[0])


def _post_min_eig(t, args, result, dur, mark):
    n = _dimension(args[0])
    t.sums["linalg.eig_small_s" if n <= SMALL_EIG else "linalg.eig_large_s"] += dur
    t.sums["linalg.flops_computed"] += 16.0 / 3.0 * n**3
    t.maxima["linalg.dim_max"] = max(t.maxima["linalg.dim_max"], n)


def _post_psd_check(t, args, result, dur, mark):
    if t.active["pick.pick_norm"]:
        t.counts["pick.psd_in_norm"] += 1


def _post_schur(t, args, result, dur, mark):
    t.sums["pick.schur_params"] += len(result.schur_parameters)


def _post_enumerate(t, args, result, dur, mark):
    t.sums["orbits.points"] += len(result.entries)
    t.sums["orbits.dropped"] += result.dropped


def _post_orbit_points(t, args, result, dur, mark):
    t.sums["kernels.points_cut"] += t.sums["orbits.points"] - mark - len(result)


def _post_gram(t, args, result, dur, mark):
    t.sums["kernels.entries"] += result.entries.size
    if type(args[0]).__name__ == "OrbitGramKernel":
        t.sums["kernels.points_cut"] += (
            t.sums["orbits.points"] - mark - result.entries.shape[0])


def _post_block(t, args, result, dur, mark):
    t.sums["kernels.entries"] += np.size(result)


def _post_blocks(t, args, result, dur, mark):
    t.sums["kernels.entries"] += sum(np.size(b) for row in result for b in row)


def _post_kernel_eval(t, args, result, dur, mark):
    t.sums["kernels.entries"] += 1


def _post_evaluate(t, args, result, dur, mark):
    t.counts["blaschke.eval_calls"] += 1
    t.sums["blaschke.factors"] += args[0].degree


def _post_product_values(t, args, result, dur, mark):
    t.counts["blaschke.eval_calls"] += 1
    t.sums["blaschke.factors"] += args[0].degree * np.size(args[1])


_POST = {
    "linalg.min_eig": _post_min_eig,
    "linalg.psd_check": _post_psd_check,
    "pick._schur_recursion": _post_schur,
    "orbits.enumerate_orbit": _post_enumerate,
    "kernels._orbit_points": _post_orbit_points,
    "kernels.gram": _post_gram,
    "kernels.orbit_block": _post_block,
    "pick._orbit_blocks": _post_blocks,
    "kernels.kernel_eval": _post_kernel_eval,
    "blaschke.evaluate": _post_evaluate,
    "blaschke.product_values": _post_product_values,
}
