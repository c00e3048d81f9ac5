"""Run one weckd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain --seed 0 --seconds 20 --trace 0

Everything runs in one process with one BLAS thread. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs half the time untraced and half traced
and reports the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full record with the
environment goes to perfbench/.work/results/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
PROBE_REPS = 5


def declared_metrics():
    """({name: unit} end-to-end, {name: unit} per-layer), as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer"))


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def bootstrap():
    """Pin BLAS to one thread and import weckd from this checkout's src/.

    Returns None, or a message saying why weckd cannot be imported from there.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"  # must precede the first numpy import
    os.environ.pop("WECKD_THREADS", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "weckd", "__init__.py")):
        return f"no weckd package under {src}"
    sys.path.insert(0, src)
    import weckd
    if os.path.dirname(os.path.dirname(os.path.abspath(weckd.__file__))) != src:
        return f"imported weckd from {weckd.__file__}, not from {src}"
    return None


def run_loop(workload, seconds, tracer, min_ops=1):
    """Closed loop, one client: the next operation starts when the last is checked.

    Runs at least `min_ops` operations. Returns per-operation wall times,
    quality values, and the operations attempted and failed.
    """
    times, qualities, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                output = workload.op()
        except Exception:  # a raising operation is a failed one; keep measuring
            workload.problems.append(traceback.format_exc())
            output = None
        times.append(time.perf_counter() - t0)
        if output is None:
            a = f = workload.op_units()
            summary = None
        else:
            a, f, summary = workload.check(output)
        attempted, failed = attempted + a, failed + f
        if summary is not None:
            qualities.append(workload.quality(summary))
    return times, qualities, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["chain", "eval", "tune"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    problem = bootstrap()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import weckd.backbone
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import
    conv_blocks = weckd.backbone.BackboneConfig().conv_blocks

    def log(msg):
        print(f"[{args.workload} seed={args.seed}] {msg}", flush=True)

    env = environment()
    log("environment " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](WORK, args.seed)
    trace = bool(args.trace)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)

    setup_tracer = tracing.Tracer() if trace else None
    setup_times = []
    for _ in range(SETUP_REPS):
        with (tracing.instrument(setup_tracer, conv_blocks) if trace
              else contextlib.nullcontext()):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

    if not trace:
        times, qualities, attempted, failed = run_loop(workload, args.seconds, None,
                                                       workload.min_ops)
        metrics = end_to_end(workload, import_s, setup_times, times, qualities,
                             attempted, failed)
        record = {"samples": {"op_s": times, "setup_s": setup_times, "import_s": import_s,
                              "quality": qualities}}
        log(f"{len(times)} operations, op_s samples {[round(t, 3) for t in times]}")
        for name, alias in workload.aliases.items():
            if name in metrics:
                log(f"{alias} is {name} on this workload")
        log(f"{workload.aliases['quality']} = {statistics.median(qualities or [0.0]):.6g}, "
            f"reference {workload.quality(workload.reference) if workload.reference else None}")
        log(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    else:
        # the first operation of a process runs cold (allocator, lazy imports), so
        # the untraced baseline takes at least two and the overhead skips the first
        base_times, _, a1, f1 = run_loop(workload, args.seconds / 2, None, min_ops=2)
        loop_tracer = tracing.Tracer()
        with tracing.instrument(loop_tracer, conv_blocks):
            traced_times, _, a2, f2 = run_loop(workload, args.seconds / 2, loop_tracer)
        attempted, failed = a1 + a2, f1 + f2
        metrics, sources = per_layer(workload, setup_tracer, loop_tracer,
                                     base_times, traced_times, args.seed)
        record = {"samples": {"untraced_op_s": base_times, "traced_op_s": traced_times},
                  "per_layer_source": sources}
        loop_tracer.write_jsonl(os.path.join(
            WORK, "results", f"{args.workload}-seed{args.seed}-spans.jsonl"))

    for problem in workload.problems:
        log(f"check failed: {problem}")
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "result": result})
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def end_to_end(workload, import_s, setup_times, times, qualities, attempted, failed):
    op_s = statistics.median(times)
    quality = statistics.median(qualities) if qualities else 0.0
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_s": op_s,
        "images_per_s": statistics.median(workload.images_per_op() / t for t in times),
        # a missing reference already fails every operation; 0 keeps the line valid JSON
        "quality_vs_ref": workload.quality_ratio(quality) if workload.reference else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    units = declared_metrics()[0]
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def per_layer(workload, setup_tracer, loop_tracer, base_times, traced_times, seed):
    """Per-layer metrics: from the traced loop, else the traced set-up, else the probes."""
    import probes
    import tracing
    import weckd.backbone
    import weckd.tensor
    import workloads

    backbone = weckd.backbone.BackboneConfig(input_size=(32, 32, 1), num_classes=4)
    bwd = probes.op_backward_ms(weckd.tensor.Tape, backbone, workload.train_batch,
                                PROBE_REPS, seed)
    probe_tracer = tracing.Tracer()
    with tracing.instrument(probe_tracer, backbone.conv_blocks):
        with probe_tracer.span("bench.op"):
            probes.layer_probe_run(weckd, os.path.join(WORK, "probe"),
                                   seed % workloads.PANELS)

    phases = [("loop", tracing.layer_metrics(loop_tracer.spans, len(traced_times))),
              ("setup", tracing.layer_metrics(setup_tracer.spans, SETUP_REPS)),
              ("probe", tracing.layer_metrics(probe_tracer.spans, 1))]
    values, sources = dict(bwd), {k: "op-probe" for k in bwd}
    for phase, found in phases:
        for k, v in found.items():
            if k not in values:
                values[k], sources[k] = v, phase
    values["trace_overhead_frac"] = (statistics.median(traced_times)
                                     / statistics.median(base_times[1:]) - 1.0)
    values["trace_remainder_frac"] = tracing.remainder_frac(loop_tracer.spans)
    units = declared_metrics()[1]
    missing = [k for k in units if k not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}, sources


if __name__ == "__main__":
    sys.exit(main())
