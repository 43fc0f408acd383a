"""hybridlens benchmark: one workload, timed end to end or per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload imaging-201 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout.  The run repeats
whole rounds of the workload (see ``workloads.py``) for about
``--seconds`` seconds and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, each stage time scaled to the nominal
machine speed of ``reference.py`` (the table above the JSON line also
gives the stage times as measured); ``--trace 1`` alternates untraced and
traced rounds, reports the per-layer metrics and the tracing overhead,
and writes the spans to ``bench/out/spans-<workload>-seed<seed>.npz``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def process_age():
    """Seconds since this process started, interpreter start included."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of proc(5), starttime
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import hybridlens from the checkout's ``src``; exit 2 if absent."""
    if not (SRC / "hybridlens" / "__init__.py").is_file():
        sys.exit(f"bench: no hybridlens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hybridlens
    import hybridlens.cli
    seconds = time.perf_counter() - t0
    if Path(hybridlens.__file__).resolve().parent != SRC / "hybridlens":
        sys.exit(f"bench: imported hybridlens from {hybridlens.__file__}, "
                 f"not from {SRC}")
    return hybridlens, seconds


def median_metric(rec, name):
    values = rec.samples.get(name)
    return statistics.median(values) if values else None


def end_to_end(rec, setup_s):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fd_errors = rec.samples.get("landing_error_fd_max")
    return {
        "setup_s": (setup_s, "s"),
        "design_imaging_s": (median_metric(rec, "design_imaging_s"), "s"),
        "retrace_s": (median_metric(rec, "retrace_s"), "s"),
        "design_farfield_s": (median_metric(rec, "design_farfield_s"), "s"),
        "trace_analytic_rays_per_s":
            (median_metric(rec, "trace_analytic_rays_per_s"), "rays/s"),
        "trace_fd_rays_per_s": (median_metric(rec, "trace_fd_rays_per_s"), "rays/s"),
        "landing_error_fd_max": (max(fd_errors) if fd_errors else None, "lens_units"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def per_layer(tr, setup_end, rounds, import_s, overhead):
    """Per-layer metrics: the set-up's spans (those before ``setup_end``)
    plus the median over traced rounds of each round's sum."""
    import tracer as tracing

    setup = tr.totals(0, setup_end)
    per_round = [tr.totals(lo, hi) for lo, hi in rounds]
    idx = {name: i for i, name in enumerate(tr.names)}
    out = {"setup.import.s": (import_s, "s"), "tracing.overhead": (overhead, "ratio")}
    for metric, unit, name, total in tracing.span_metrics():
        i = idx[name]
        value = setup[total][i] + statistics.median(t[total][i] for t in per_round)
        out[metric] = (float(value), unit)
    return out


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("HYBRIDLENS_THREADS", None)  # the default one-thread path
    hl, import_s = import_package()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = BENCH / "out"
    work = out_dir / f"work-{workload.name}-seed{args.seed}-{os.getpid()}"
    tr = tracing.Tracer() if args.trace else None
    try:
        with tr.installed() if args.trace else contextlib.nullcontext():
            session = workloads.Session(hl, workload, args.seed, work)
        setup_s = process_age()  # one cold set-up, not scaled

        rec = workloads.Record()
        durations = {False: [], True: []}
        traced_rounds = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(durations[False]) > len(durations[True])
            session.tracer = tr if traced else None
            t0 = time.perf_counter()
            if traced:
                lo = len(tr)
                with tr.installed():
                    session.run_round(rec)
                traced_rounds.append((lo, len(tr)))
            else:
                session.run_round(rec)
            durations[traced].append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            done = elapsed + statistics.median(durations[traced]) > args.seconds
            if done and (traced or not args.trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in rec.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        overhead = (statistics.median(durations[True])
                    / statistics.median(durations[False]) - 1.0)
        metrics = per_layer(tr, traced_rounds[0][0], traced_rounds, import_s,
                            overhead)
        out_dir.mkdir(exist_ok=True)
        tr.save(out_dir / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(rec, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!s:>24} {unit}")
    if not args.trace:
        print("as measured, before scaling:")
        for name, values in rec.samples.items():
            if name.startswith("raw:"):
                print(f"  {name[4:]:38s} {statistics.median(values)!s:>24}")
    print(json.dumps({
        "correct": not rec.errors and all(v is not None for v, _ in metrics.values()),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
