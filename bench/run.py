#!/usr/bin/env python3
"""Run one orbitpick benchmark workload and print its metrics.

    python3 bench/run.py --workload small-dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One closed loop: a single client answers one problem at a time, with
BLAS pinned to one thread.  Problems come in fixed cycles of classes.
``--seconds`` sets how many whole cycles a run measures: as many as take
that long at the seed commit on the reference machine (2 shared x86-64
vCPUs), so that both sides of a comparison measure the same problems
and the tail percentile keeps its rank.  A run on a much slower machine
stops starting cycles after 1.4 times ``--seconds``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` replays a
share of those cycles twice, untraced and then with every layer wrapped,
and reports the per-layer metrics and the tracing overhead.

Every answer is checked against the exact-answer oracle outside the
timed region.  Human-readable lines come first; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
A full record, with the environment, goes to bench/results/.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads; recorded with every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

WORKLOADS = ("small-dense", "orbit-block", "generic-bfs", "cli")
# Bounded end-to-end metrics.  problem_tail_ms is printed and recorded
# but not bounded: its run-to-run spread over seeds reached 17-29% on
# small-dense, more than the largest bound allowed.
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "problems_per_s": "1/s",
    "problem_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.eig_calls": "count", "linalg.eig_small_s": "s", "linalg.eig_large_s": "s",
    "linalg.dim_max": "rows", "linalg.flops_computed": "flop", "linalg.self_s": "s",
    "pick.psd_checks_per_norm": "count", "pick.construct_failures": "count",
    "pick.schur_params": "count", "pick.self_s": "s",
    "kernels.kernel_eval_calls": "count", "kernels.entries": "count",
    "kernels.points_cut": "count", "kernels.self_s": "s",
    "blaschke.eval_calls": "count", "blaschke.factors": "count", "blaschke.self_s": "s",
    "orbits.points": "count", "orbits.dropped": "count",
    "orbits.distance_calls": "count", "orbits.self_s": "s",
    "mobius.compose_calls": "count", "mobius.self_s": "s",
    "cli.startup_s": "s", "cli.self_s": "s", "cli.stdout_bytes": "B",
    "trace.overhead_ratio": "ratio",
}
# Operations each workload times, as reported: metric prefix -> ops summed.
OP_METRICS = {
    "small-dense": {"verdict": ("verdict",), "norm": ("norm",),
                    "construct": ("construct",)},
    "orbit-block": {"verdict": ("verdict",), "norm": ("norm",),
                    "composed_verdict": ("composed",), "character": ("character",),
                    "boundary_gram": ("gram",)},
    "generic-bfs": {"orbit": ("orbit", "product"), "stabilizer": ("stabilizer",)},
    "cli": {"cmd": ("cmd",)},
}
# Seconds one cycle takes at the seed commit on the reference machine.
CYCLE_S = {"small-dense": 7.0, "orbit-block": 1.8, "generic-bfs": 2.7, "cli": 3.9}
# Share of those cycles a traced run replays, so that its untraced and
# traced passes together take about as long as an untraced run.
TRACE_SHARE = {"small-dense": 0.5, "orbit-block": 0.5, "generic-bfs": 0.33, "cli": 0.5}
SLOW_FACTOR = 1.4  # stop starting cycles past this multiple of --seconds
# Median time of report.reference_kernel on the reference machine.  The
# machine's speed drifts by up to 1.5x over minutes for identical work;
# scaling problem times by REFERENCE_S / (the kernel's median in the run)
# cut the spread of 25-second medians from 11-13% to 2-5% there.
REFERENCE_S = 0.0075
HARD_LIMIT_S = 150.0  # stop starting new problems past this, to exit within 180 s
SETUP_REPEATS = 5


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_import(module: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def make_workload(name: str, workdir: str, env: dict):
    from orbitbench import workloads

    if name == "cli":
        return workloads.Cli(ROOT, workdir, env)
    return {"small-dense": workloads.SmallDense, "orbit-block": workloads.OrbitBlock,
            "generic-bfs": workloads.GenericBfs}[name]()


def setup(wl, seed: int, env: dict) -> tuple[float, dict]:
    """Set up several times and take medians: fresh-process import, input
    generation for one cycle, then one warm-up."""
    if wl.name == "cli":
        imports = [_fresh_import("orbitpick.cli", env) for _ in range(SETUP_REPEATS)]
        wl.warm_up()
        return statistics.median(imports), {"import_s": imports}
    imports = [_fresh_import("orbitpick", env) for _ in range(SETUP_REPEATS)]
    gens = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for i in range(len(wl.classes)):
            wl.generate(seed, 0, i)
        gens.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.warm_up()
    warm = time.perf_counter() - t0
    total = statistics.median(imports) + statistics.median(gens) + warm
    return total, {"import_s": imports, "generate_s": gens, "warm_up_s": warm}


def problems(wl, seed: int, cycle: int):
    for i in range(len(wl.classes)):
        prob = wl.generate(seed, cycle, i)
        if hasattr(wl, "prepare"):
            wl.prepare(prob)
        yield i, prob


def cycles_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[name]))


def run_loop(wl, seed: int, cycles: int, tracer=None, seconds: float | None = None):
    """Closed loop over ``cycles`` whole cycles, or fewer once ``seconds``
    have passed.  Returns a list of (class, outcome, wall seconds of the
    solve call)."""
    from orbitbench import report

    started = time.perf_counter()
    results = []
    cycle = 0
    while True:
        for i, prob in problems(wl, seed, cycle):
            if tracer is None:
                t0 = time.perf_counter()
                out = wl.solve(prob)
                wall = time.perf_counter() - t0
            else:
                out, wall = tracer.root(wl.solve, prob)
            wl.check(prob, out)
            out.answers = None  # the checks are done; free the answers
            out.reference_s = report.reference_kernel()
            results.append((i, out, wall))
            if time.perf_counter() - started > HARD_LIMIT_S:
                return results
        cycle += 1
        if cycle >= cycles:
            return results
        if seconds is not None and time.perf_counter() - started >= seconds:
            return results


def tally(results) -> dict:
    outs = [out for _, out, _ in results]
    return {
        "attempted": sum(o.attempted for o in outs),
        "failed": sum(o.failed for o in outs),
        "wrong": sum(o.wrong for o in outs),
        "construct_failures": sum(o.construct_failures for o in outs),
        "notes": sorted({n for o in outs for n in o.notes})[:50],
    }


def end_to_end(wl, results, setup_s: float) -> tuple[dict, dict]:
    """Guarded metrics (every workload) and the workload's own extras.

    Problem times are scaled to the reference machine speed: multiplied
    by REFERENCE_S over the run's median time of the reference kernel,
    which ran after every problem.  The wall-clock values are reported
    beside them.
    """
    from orbitbench import report

    lat = [out.latency_s for _, out, _ in results]
    reference = statistics.median(out.reference_s for _, out, _ in results)
    speed = REFERENCE_S / reference
    summary = report.latency_summary([speed * x for x in lat])
    # cli: the largest command process; otherwise this process
    rss = report.peak_rss_mb(children=wl.name == "cli")
    guarded = {
        "setup_s": setup_s,
        "problems_per_s": len(lat) / sum(lat) / speed,
        "problem_p50_ms": summary["p50_ms"],
        "peak_rss_mb": rss,
    }
    extras = {"problem": summary, "wall_problem": report.latency_summary(lat),
              "wall_problems_per_s": len(lat) / sum(lat),
              "reference_kernel_ms": 1e3 * reference, "speed_scale": speed}
    for prefix, ops in OP_METRICS[wl.name].items():
        samples = [speed * sum(out.op_s[op] for op in ops) for _, out, _ in results
                   if all(op in out.op_s for op in ops)]
        if samples:
            extras[prefix] = report.latency_summary(samples)
    counts = tally(results)
    extras["fail_ratio"] = counts["failed"] / counts["attempted"]
    errs = [e for _, out, _ in results for e in out.norm_rel_err]
    if errs:
        extras["norm_rel_err_max"] = max(errs)
        extras["norm_rel_err_p50"] = statistics.median(errs)
    extras["cycles"] = len(results) / len(wl.classes)
    extras["class_p50_ms"] = {
        str(wl.classes[i]): 1e3 * statistics.median(
            [out.latency_s for j, out, _ in results if j == i])
        for i in sorted({i for i, _, _ in results})}
    return guarded, extras


def per_layer(wl, seed: int, seconds: float, env: dict) -> tuple[dict, list, dict]:
    from orbitbench import report, tracing

    cycles = max(1, round(TRACE_SHARE[wl.name] * cycles_for(wl.name, seconds)))
    if wl.name == "cli":
        wl.in_process = True  # the tracer sees only this process
    plain = run_loop(wl, seed, cycles=cycles)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_loop(wl, seed, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    self_s, wall = tracer.self_times()
    gap = abs(sum(self_s.values()) - wall)
    if gap > 1e-6 * wall + 1e-9:
        raise RuntimeError(f"layer self times miss the traced wall time by {gap:.3e} s")
    c, s = tracer.counts, tracer.sums
    norms = c["pick.pick_norm"] + c["pick.pick_norm!raised"]
    startup = [_fresh_import("orbitpick.cli", env) for _ in range(SETUP_REPEATS)]
    metrics = {
        "linalg.eig_calls": c["linalg.min_eig"] + c["linalg.min_eig!raised"],
        "linalg.eig_small_s": s["linalg.eig_small_s"],
        "linalg.eig_large_s": s["linalg.eig_large_s"],
        "linalg.dim_max": tracer.maxima["linalg.dim_max"],
        "linalg.flops_computed": s["linalg.flops_computed"],
        "pick.psd_checks_per_norm": c["pick.psd_in_norm"] / norms if norms else 0.0,
        "pick.construct_failures": sum(o.construct_failures for _, o, _ in traced),
        "pick.schur_params": s["pick.schur_params"],
        "kernels.kernel_eval_calls": c["kernels.kernel_eval"] + c["kernels.kernel_eval!raised"],
        "kernels.entries": s["kernels.entries"],
        "kernels.points_cut": s["kernels.points_cut"],
        "blaschke.eval_calls": c["blaschke.eval_calls"],
        "blaschke.factors": s["blaschke.factors"],
        "orbits.points": s["orbits.points"],
        "orbits.dropped": s["orbits.dropped"],
        "orbits.distance_calls": c["orbits.distance_calls"],
        "mobius.compose_calls": c["mobius.DiskAutomorphism.compose"],
        "cli.startup_s": statistics.median(startup),
        "cli.stdout_bytes": sum(o.stdout_bytes for _, o, _ in traced) / cycles,
        "trace.overhead_ratio": wall / sum(w for _, _, w in plain),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    extras = {"cycles": cycles, "traced_wall_s": wall,
              "untraced_wall_s": sum(w for _, _, w in plain),
              "bench_self_s": self_s.get("bench", 0.0),
              "spans": len(tracer.span_start),
              "peak_rss_mb": report.peak_rss_mb()}
    return metrics, plain + traced, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbitpick", "__init__.py")):
        print(f"error: no orbitpick sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from orbitbench import report

    env = _child_env()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = make_workload(args.workload, workdir, env)
        setup_s, setup_detail = setup(wl, args.seed, env)
        if args.trace:
            metrics, results, extras = per_layer(wl, args.seed, args.seconds, env)
            units = PER_LAYER
        else:
            results = run_loop(wl, args.seed, cycles_for(wl.name, args.seconds),
                               seconds=SLOW_FACTOR * args.seconds)
            metrics, extras = end_to_end(wl, results, setup_s)
            extras["planned_cycles"] = cycles_for(wl.name, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = tally(results)
    extras["setup"] = setup_detail
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": report.environment(ROOT),
        "counts": counts, "metrics": metrics, "detail": extras,
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    _print_human(args.workload, record, units)
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


def _print_human(name: str, record: dict, units: dict) -> None:
    env = record["environment"]
    print(f"# {name} seed={record['seed']} trace={record['trace']} "
          f"python {env['python']} numpy {env['numpy']} {env['blas']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"src_lines={env['src_lines']} commit={env['commit']}")
    for key, unit in units.items():
        print(f"{name} {key} {record['metrics'][key]:.6g} {unit}")
    detail = record["detail"]
    for key, value in detail.items():
        if isinstance(value, dict) and "p50_ms" in value:
            print(f"{name} {key}_p50_ms {value['p50_ms']:.6g} ms")
            print(f"{name} {key}_tail_ms {value['tail_ms']:.6g} ms "
                  f"(p{value['tail_percentile']:.1f}, {value['tail_beyond']} beyond, "
                  f"{value['samples']} samples)")
    for key, unit in (("wall_problems_per_s", "1/s"), ("reference_kernel_ms", "ms"),
                      ("speed_scale", "1"), ("fail_ratio", "1"),
                      ("norm_rel_err_max", "1"), ("norm_rel_err_p50", "1")):
        if key in detail:
            print(f"{name} {key} {detail[key]:.6g} {unit}")
    counts = record["counts"]
    print(f"{name} attempted {counts['attempted']} failed {counts['failed']} "
          f"wrong {counts['wrong']} construct_failures {counts['construct_failures']}")
    for note in counts["notes"][:10]:
        print(f"{name} failure: {note}")


if __name__ == "__main__":
    sys.exit(main())
