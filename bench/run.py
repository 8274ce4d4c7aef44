"""Pipeline benchmark for taanseg: one closed-loop workload per process.

Run from the repository root:

    python3 bench/run.py --workload concert10_mlp --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --self-check

The run sets up the workload, then runs operations one at a time until
`--seconds` have passed (at least one), checks every operation's output,
and prints as its last line one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json; with `--trace 1` the run makes one untraced
and one traced operation and reports the per-layer metrics, and writes
the spans to `.bench_work/trace_<workload>_seed<seed>.json`.
See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("concert10_mlp", "cnn_train_infer", "tracks_corpus")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7,
                   help="trains on concert seed n, holds out n + 4")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="2-minute concerts instead of 10-minute ones")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def cap_threads():
    """Keep NumPy/BLAS threads at or below nproc; must run before numpy
    is imported. Returns (nproc, cap)."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in THREAD_VARS:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(cap, 1)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def import_library():
    """Import taanseg from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "taanseg" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'taanseg'} not found; "
                         "run from the root of a taanseg source checkout")
    sys.path.insert(0, str(src))
    import taanseg
    if Path(taanseg.__file__).resolve().parent != (src / "taanseg").resolve():
        raise SystemExit(f"error: imported taanseg from {taanseg.__file__}")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_op(wl, state, tr):
    """One operation; returns its wall time, outcome and failed checks."""
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            out = wl.op(state, tr)
    except Exception:
        traceback.print_exc()
        return {"seconds": time.perf_counter() - t0, "out": None,
                "failed": ["exception"]}
    return {"seconds": time.perf_counter() - t0, "out": out,
            "failed": [k for k, ok in out["checks"].items() if not ok]}


def check_repeats(ops):
    """Every operation of a run must give the first one's timelines."""
    done = [o for o in ops if o["out"] is not None]
    for o in done[1:]:
        if o["out"]["timelines"] != done[0]["out"]["timelines"]:
            o["failed"].append("timelines_repeat")


def run_untraced(wl, args, spans):
    setup_times, state = [], None
    for _ in range(wl.setup_repeats):
        state = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        state = wl.setup(args.seed, args.short, WORK, spans.NULL)
        setup_times.append(time.perf_counter() - t0)
    # start another operation only if it should end within --seconds
    ops = []
    start = time.perf_counter()
    while not ops or (time.perf_counter() - start
                      + statistics.median(o["seconds"] for o in ops)
                      <= args.seconds):
        ops.append(run_op(wl, state, spans.NULL))
    check_repeats(ops)

    op_s = statistics.median(o["seconds"] for o in ops)
    outs = [o["out"] for o in ops if o["out"] is not None]
    quality = outs[0]["quality"] if outs else {}
    n_failed = sum(bool(o["failed"]) for o in ops)
    metrics = {
        "audio_s_per_s": state["concert_s"] / op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
        "frame_f1": quality.get("frame_f1", 0.0),
        "ok_rate": 1.0 - n_failed / len(ops),
    }
    print(f"bench-ops n={len(ops)} op_s=" +
          ",".join(f"{o['seconds']:.3f}" for o in ops) +
          f" median_op_s={op_s:.3f} setup_s=" +
          ",".join(f"{s:.3f}" for s in setup_times) +
          f" sections_exact={quality.get('sections_exact')}"
          f" section_errors={quality.get('section_errors')}"
          f" boundary_dev_s={quality.get('boundary_dev_s')}")
    return ops, metrics


RATIOS = {
    "vocal.voiced_frac": ("vocal.voiced_frames", "vocal.track_frames"),
    "features.valid_window_frac": ("features.valid_windows", "features.windows"),
}
QUALITY = ("evaluation.sections_exact", "evaluation.section_errors",
           "evaluation.boundary_dev_s")


def layer_metrics(tr, names, ref, traced):
    """Per-layer metrics from the traced run's spans; 0 for unused layers.

    `<span>_s` sums self time, `<span>_peak_mb` takes the tracemalloc
    peak, and any other name is a count summed over all spans."""
    counts = {}
    for s in tr.spans:
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    quality = traced["out"]["quality"] if traced["out"] else {}
    op_root = tr.roots("op")[0]
    out = {}
    for name in names:
        if name in RATIOS:
            num, den = RATIOS[name]
            value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif name in QUALITY:
            value = quality.get(name.split(".")[1]) or 0
        elif name == "trace.overhead_frac":
            value = traced["seconds"] / ref["seconds"] - 1.0
        elif name == "trace.dsp_vocal_frac":
            value = sum(tr.self_time(s) for s in tr.under(op_root)
                        if s["name"].split(".")[0] in ("dsp", "vocal")
                        ) / traced["seconds"]
        elif name.endswith("_peak_mb"):
            span = name[: -len("_peak_mb")]
            value = max((s["counts"]["peak_mb"] for s in tr.spans
                         if s["name"] == span and "peak_mb" in s["counts"]),
                        default=0.0)
        elif name.endswith("_s"):
            span = name[: -len("_s")]
            value = sum(tr.self_time(s) for s in tr.spans if s["name"] == span)
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out


def run_traced(wl, args, spans, spec):
    tr = spans.Tracer(enabled=True)
    with tr.span("setup"):
        state = wl.setup(args.seed, args.short, WORK, tr)
    ref = run_op(wl, state, spans.NULL)
    traced = run_op(wl, state, tr)
    ops = [ref, traced]
    check_repeats(ops)
    if wl.guard is not None and traced["out"] is not None:
        traced["failed"] += [k for k, ok in wl.guard(state, traced["out"]).items()
                             if not ok]
    metrics = layer_metrics(tr, [m["name"] for m in spec["per_layer"]],
                            ref, traced)
    print(f"bench-ops untraced_op_s={ref['seconds']:.3f} "
          f"traced_op_s={traced['seconds']:.3f}")
    return ops, metrics, tr


def require(ok, message):
    if not ok:
        raise SystemExit(f"self-check failed: {message}")


def self_check():
    """Short run of every workload, traced and untraced, on 2-minute
    concerts: every metric of BENCHMARK.json is printed with its unit and
    each trace has spans for the layers its workload uses."""
    import_library()
    import workloads

    spec = load_spec()
    seen_layers = set()
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--short"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = f"{name} --trace {trace}"
            require(proc.returncode == 0,
                    f"{label}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{label}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0,
                    f"{label}: failed operations\n{proc.stderr}")
            expected = spec["per_layer" if trace else "end_to_end"]
            require(set(result["metrics"]) == {m["name"] for m in expected},
                    f"{label}: metric names differ from BENCHMARK.json")
            for m in expected:
                got = result["metrics"][m["name"]]
                require(got["unit"] == m["unit"], f"{label}: {m['name']} unit")
                require(math.isfinite(got["value"]), f"{label}: {m['name']}")
                require(trace or got["value"] != 0, f"{label}: {m['name']} is 0")
            if trace:
                with open(WORK / f"trace_{name}_seed7.json", encoding="utf-8") as fh:
                    layers = {s["name"].split(".")[0]
                              for s in json.load(fh)["spans"]}
                missing = set(workloads.WORKLOADS[name].layers) - layers
                require(not missing, f"{label}: no spans for {sorted(missing)}")
                seen_layers |= layers
            print(f"self-check ok: {label}")
    modules = {"dsp", "vocal", "features", "mlp", "cnn", "segmentation",
               "bootstrap", "evaluation", "wavio", "textgrid", "modelio", "synth"}
    require(modules <= seen_layers,
            f"layers never traced: {sorted(modules - seen_layers)}")
    print("self-check passed")
    return 0


def main(argv=None):
    args = parse_args(argv)
    nproc, cap = cap_threads()
    if args.self_check:
        return self_check()
    import_library()
    import numpy as np
    import spans
    import workloads

    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    info = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": args.seed + workloads.HELD_OUT_OFFSET,
        "short": args.short, "trace": args.trace, "nproc": nproc,
        "blas_threads_cap": cap, "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
    }
    if args.trace:
        ops, metrics, tr = run_traced(wl, args, spans, spec)
        info["trace_overhead_frac"] = metrics["trace.overhead_frac"]
        tr.write(WORK / f"trace_{args.workload}_seed{args.seed}.json", info)
        expected = spec["per_layer"]
    else:
        ops, metrics = run_untraced(wl, args, spans)
        expected = spec["end_to_end"]
    print("bench-info " + json.dumps(info))
    for o in ops:
        if o["failed"]:
            print(f"bench-failed-checks {o['failed']}", file=sys.stderr)
    failed = sum(bool(o["failed"]) for o in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
