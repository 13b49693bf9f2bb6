"""Benchmark of the prmquadrics package: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census_serial --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A run imports the package from ``src/`` of the checkout, runs
``--seconds`` / (the workload's nominal pass time) passes of one workload
(at least one; see ``workloads.py``), checks every output exactly, and prints a
summary followed by one JSON line: ``correct``, ``attempted`` and ``failed``
(checks) and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics, writing the spans to ``--out-dir``.  Every
run appends a record (metrics, per-pass times, machine and load) to
``<out-dir>/runs.jsonl``; ``--compare`` reads such files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = {"full": 9, "smoke": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "forms_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_LAYERS = ("gf.field_from_order", "projspace.projective_space", "projspace.monomial_rows")
CALL_LAYERS = (
    "linalg.rref",
    "linalg.kernel_basis_gf2",
    "quadric.point_set",
    "quadric.radical_quadratic",
    "quadric.classify",
    "quadric.canonicalize",
    "prm.interpolation_space",
    "cli.main",
)
SELF_LAYERS = CALL_LAYERS + (
    "quadric.substitute",
    "prm.iter_span_monic",
    "prm.is_minimal_characterization",
    "prm.is_minimal_interpolation",
    "prm.is_minimal_exhaustive",
    "census.survey",
    "census.serre_scan",
    "census.brute_force_census",
    "census.verify_containment",
    "formexpr.parse_form",
    "formexpr.render_form",
)
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SETUP_LAYERS},
    **{f"{name}.calls": "count" for name in CALL_LAYERS},
    **{f"{name}.self_s": "s" for name in SELF_LAYERS},
    "prm.iter_span_monic.members": "count",
    "prm.span_useful_ratio": "ratio",
    "census.classify_per_witness": "ratio",
    "census.parallel.parent_cpu_s": "s",
    "census.parallel.children_cpu_s": "s",
    "census.parallel.cpu_util": "ratio",
    "bench.trace_overhead_s": "s",
}


def load_package() -> None:
    """Import prmquadrics from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import prmquadrics
    except ImportError as exc:
        raise SystemExit(f"error: cannot import prmquadrics from {SRC}: {exc}") from None
    origin = Path(prmquadrics.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: prmquadrics resolved to {origin}, outside {SRC}")


def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


# -- set-up probes: fresh processes --------------------------------------------


def probe_main(spaces: str, trace: bool) -> int:
    """Child side: time importing the package and building the workload's
    fields, projective spaces and codes, after timing the import reference."""
    reference_s = speed.import_reference_time()
    start = perf_counter()
    load_package()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    workloads.build(tuple(int(x) for x in item.split(":")) for item in spaces.split(","))
    elapsed = perf_counter() - start
    layers = {name: tracer.total_s[name] for name in SETUP_LAYERS} if tracer else {}
    print(json.dumps({"setup_s": elapsed, "reference_s": reference_s, "layers": layers}))
    return 0


def run_probe(spaces, trace: bool) -> dict:
    arg = ",".join(f"{q}:{n}" for q, n in spaces)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", arg,
           "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- passes --------------------------------------------------------------------


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, checks, tracer, meter) -> dict:
    from workloads import Pass

    p = Pass(checks, tracer, meter)
    gc.collect()  # start every pass from the same heap, not the last pass's garbage
    self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    workload.run(p)
    wall = perf_counter() - start
    busy, raw_busy = sum(p.latencies), sum(p.raw_latencies)
    return {
        "wall_s": wall,
        "busy_s": busy,
        "raw_busy_s": raw_busy,
        "forms": p.forms,
        # A scan's user waits for the whole verification: one request per pass.
        "latencies": [busy] if workload.batch else p.latencies,
        "raw_latencies": [raw_busy] if workload.batch else p.raw_latencies,
        "parent_cpu_s": _cpu(resource.RUSAGE_SELF) - self0,
        "children_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - children0,
    }


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes, probes, peak_rss_mb, raw=False) -> dict:
    """Times scaled to nominal machine speed (see speed.py), or as timed if raw."""
    prefix = "raw_" if raw else ""
    busy = sum(p[prefix + "busy_s"] for p in passes)
    latencies = [x for p in passes for x in p[prefix + "latencies"]]
    setup = [
        pr["setup_s"] * (1 if raw else speed.NOMINAL_IMPORT_S / pr["reference_s"])
        for pr in probes
    ]
    return {
        "setup_s": statistics.median(setup),
        "forms_per_s": sum(p["forms"] for p in passes) / busy,
        "requests_per_s": len(latencies) / busy,
        "request_p50_ms": percentile(latencies, 50) * 1e3,
        "request_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, probes, base, traced, workers) -> dict:
    out = {}
    for name in SETUP_LAYERS:
        out[f"{name}.s"] = statistics.median(pr["layers"][name] for pr in probes)
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = tracer.calls[name]
    for name in SELF_LAYERS:
        out[f"{name}.self_s"] = tracer.self_s[name]
    members = tracer.counts["prm.iter_span_monic.members"]
    pairs = tracer.counts["census.containment_pairs"]
    out["prm.iter_span_monic.members"] = members
    out["prm.span_useful_ratio"] = tracer.counts["prm.strict_containments"] / members if members else 0.0
    out["census.classify_per_witness"] = (
        tracer.counts["census.classify_in_containment"] / pairs if pairs else 0.0
    )
    # CPU use of the parallel path, read from the untraced pass: worker
    # processes inherit the wrappers, so a traced pass would inflate them.
    out["census.parallel.parent_cpu_s"] = base["parent_cpu_s"]
    out["census.parallel.children_cpu_s"] = base["children_cpu_s"]
    out["census.parallel.cpu_util"] = (base["parent_cpu_s"] + base["children_cpu_s"]) / (
        base["wall_s"] * workers
    )
    out["bench.trace_overhead_s"] = traced["busy_s"] - base["busy_s"]
    return out


def run(args) -> int:
    load_package()
    import tracer as tracing
    import workloads

    env_start = environment()
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed)
    workloads.build(workload.spaces)
    checks = workloads.Checks()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        base = run_pass(workload, checks, tracing.NullTracer(), speed.Unscaled())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, checks, tracer, speed.Unscaled())
        finally:
            tracer.uninstall()
        passes = [base, traced]
    else:
        # A fixed pass count, so that both sides of a comparison do the same work.
        count = max(1, int(args.seconds // workload.nominal_s))
        with speed.Speedometer() as meter:
            passes = [
                run_pass(workload, checks, tracing.NullTracer(), meter) for _ in range(count)
            ]

    # Worker processes have been reaped; read their peak before the probes run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.workers > 1:
        peak_rss_mb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    probes = [run_probe(workload.spaces, args.trace) for _ in range(SETUP_PROBES[args.size])]

    if args.trace:
        metrics = per_layer(tracer, probes, base, traced, workload.workers)
        units = PER_LAYER_UNITS
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(spans_path)
    else:
        metrics = end_to_end(passes, probes, peak_rss_mb)
        raw_metrics = end_to_end(passes, probes, peak_rss_mb, raw=True)
        units = END_TO_END_UNITS
    env_end = environment()

    latencies = [x for p in passes for x in p["latencies"]]
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} size={args.size} "
        f"nproc={env_start['nproc']} python={env_start['python']} cpu={env_start['cpu_model']!r}"
    )
    print(
        "loadavg start=" + "/".join(f"{x:.2f}" for x in env_start["loadavg"])
        + " end=" + "/".join(f"{x:.2f}" for x in env_end["loadavg"])
    )
    print("pass busy_s: " + " ".join(f"{p['busy_s']:.3f}" for p in passes)
          + "   as timed: " + " ".join(f"{p['raw_busy_s']:.3f}" for p in passes)
          + "   wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    if not args.trace:
        print(f"machine speed: kernel median {meter.median_kernel_s() * 1e3:.4f} ms over "
              f"{len(meter.kernel_s)} samples, nominal {speed.NOMINAL_S * 1e3:.4f} ms")
    print(f"requests: n={len(latencies)} p50 and p99 over all passes")
    print(f"checks: attempted={checks.attempted} failed={checks.failed} failed_frac={failed_frac:.6g}")
    for msg in checks.messages[:20]:
        print(f"FAILED CHECK: {msg}", file=sys.stderr)
    if args.trace:
        print(f"spans: kept={len(tracer.spans)} dropped={tracer.dropped} -> {spans_path}")
    for name, value in metrics.items():
        timed = f"   as timed {raw_metrics[name]:.6f}" if not args.trace else ""
        print(f"  {name:36s} {value:>16.6f} {units[name]}{timed}")

    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "env_start": env_start,
        "env_end": env_end,
        "pass_busy_s": [p["busy_s"] for p in passes],
        "pass_raw_busy_s": [p["raw_busy_s"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "kernel_median_s": None if args.trace else meter.median_kernel_s(),
        "raw_metrics": None if args.trace else raw_metrics,
        "requests": len(latencies),
        "failed_frac": failed_frac,
        **result,
    }
    with open(out_dir / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(
        "census_serial", "containment", "forms", "census_parallel"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_PROBES), default="full",
                        help="'smoke' runs every workload at a tiny size")
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_out"))
    parser.add_argument("--compare", nargs="+", metavar="RUNS_JSONL",
                        help="summarize one record file, or compare base and new")
    parser.add_argument("--setup-probe", metavar="SPACES", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return probe_main(args.setup_probe, bool(args.trace))
    if args.compare:
        import compare

        return compare.main(args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
