#!/usr/bin/env python3
"""Repository benchmark: build the runtime, run one workload, report.

    python3 perfbench/run.py --workload kv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload hop --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --repeat 10 --out base.json [--workloads kv,hop]

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the runtime from src/ plus the workload binary) under
$CARGO_TARGET_DIR (default .bench_build).  Every file a run writes stays
under that directory.

Prints a human-readable report (provenance, every metric with its unit,
the traced per-layer summary) and, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Untraced
runs report the end-to-end metrics of BENCHMARK.json, traced runs the
per-layer ones.  Exits non-zero on any correctness violation.

--repeat N runs every workload N times (seeds 1..N, untraced) and writes
each metric's values, median and quartiles to --out, the input of
perfbench/compare.py.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
# nodes x workers and fabric of each workload (see perfbench/README.md).
LAYOUT = {
    "kv": ("2x2", "socket (UNIX domain, in-process nodes)"),
    "hop": ("4x1", "in-process hub"),
    "ckpt": ("1x1", "none (slot store file)"),
}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build perfbench; returns the binary path."""
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(bdir, "perfbench")


def source_digest():
    """sha256 over the runtime and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, trace, soft_dirty):
    nodes_workers, fabric = LAYOUT[workload]
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": BUILD_TYPE,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": workload,
        "nodes_x_workers": nodes_workers,
        "fabric": fabric,
        "seed": seed,
        "traced": bool(trace),
        "soft_dirty": soft_dirty,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_trace_file(path):
    """The trace parses as trace-event JSON and every async begin has a
    matching end (same cat, id and name; end not before begin)."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    open_spans = {}
    pairs = 0
    for ev in events:
        for key in ("name", "cat", "ph", "id", "ts", "pid", "tid"):
            if key not in ev:
                return "event without %r: %r" % (key, ev)
        k = (ev["cat"], ev["id"], ev["name"])
        if ev["ph"] == "b":
            open_spans.setdefault(k, []).append(ev["ts"])
        elif ev["ph"] == "e":
            starts = open_spans.get(k)
            if not starts:
                return "end without begin: %r" % (k,)
            if ev["ts"] < starts.pop():
                return "end before begin: %r" % (k,)
            pairs += 1
        else:
            return "unexpected phase %r" % ev["ph"]
    unmatched = sum(len(v) for v in open_spans.values())
    if unmatched:
        return "%d begin events without an end" % unmatched
    if pairs == 0:
        return "no spans"
    return None


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (result dict, provenance dict, notes)."""
    run_dir = os.path.join(build_root(), "run", "%s-%d-%d-%d" %
                           (workload, seed, trace, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    result_path = os.path.join(run_dir, "result.json")
    trace_path = os.path.join(build_root(), "traces",
                              "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", os.path.relpath(run_dir, ROOT), "--result", result_path,
           "--trace-file", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s run timed out" % workload)
    if not os.path.exists(result_path):
        raise SystemExit("perfbench: %s run left no result (exit %d)" %
                         (workload, proc.returncode))
    with open(result_path) as f:
        res = json.load(f)
    notes = [tuple(kv) for kv in res["info"]]
    if proc.returncode not in (0, 1) or (proc.returncode == 1) == res["correct"]:
        res["correct"] = False
        res["violations"].append("workload exited with %d" % proc.returncode)
    if trace:
        err = check_trace_file(trace_path)
        if err:
            res["correct"] = False
            res["violations"].append("trace file: " + err)
    soft_dirty = dict(notes).get("soft_dirty") == "true"
    # Only the set-up/run directory is scratch; traces are kept.
    for dirpath, dirnames, filenames in os.walk(run_dir, topdown=False):
        for name in filenames:
            os.unlink(os.path.join(dirpath, name))
        for name in dirnames:
            os.rmdir(os.path.join(dirpath, name))
    os.rmdir(run_dir)
    return res, provenance(workload, seed, trace, soft_dirty), notes


def fmt(v):
    return ("%.6g" % v) if isinstance(v, float) else str(v)


def single(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise SystemExit("perfbench: unknown workload %r (have %s)" %
                         (args.workload, ", ".join(sorted(names))))
    binary = build()
    res, prov, notes = run_workload(binary, args.workload, args.seed,
                                    args.seconds, args.trace)
    section = "per_layer" if args.trace else "end_to_end"
    got = res[section]
    metrics = {}
    for m in spec[section]:
        name = m["name"]
        if name in got:
            metrics[name] = {"value": got[name]["value"], "unit": m["unit"]}
        elif args.trace:
            # The layer is not exercised by this workload.
            metrics[name] = {"value": 0, "unit": m["unit"]}
            notes.append(("absent", "%s: not exercised by %s" % (name, args.workload)))
        else:
            res["correct"] = False
            res["violations"].append("end-to-end metric %s missing" % name)

    print("== perfbench %s (%s) ==" % (args.workload, "traced" if args.trace else "untraced"))
    for k, v in prov.items():
        print("  %-16s %s" % (k, v))
    attempted, failed = res["attempted"], res["failed"]
    print("  %-36s %s" % ("attempted", attempted))
    print("  %-36s %s ratio (%d of %d failed)" %
          ("fail_frac", fmt(failed / max(attempted, 1)), failed, attempted))
    for name, m in metrics.items():
        print("  %-36s %s %s" % (name, fmt(m["value"]), m["unit"]))
    # Measured and reported, but with no bound in BENCHMARK.json (see
    # perfbench/README.md: op_p50_us, op_p99_us).
    for name, m in sorted(got.items()):
        if name not in metrics:
            print("  %-36s %s %s (unbounded)" % (name, fmt(m["value"]), m["unit"]))
    extra = {"restore_ms": "ms"} if args.workload == "ckpt" else {}
    for k, v in notes:
        if k in extra:
            print("  %-36s %s %s" % (k, v, extra[k]))
        else:
            print("  note %-31s %s" % (k, v))
    for v in res["violations"]:
        print("  VIOLATION %s" % v)

    out_dir = os.path.join(build_root(), "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": prov, "correct": res["correct"],
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics, "notes": notes,
                   "violations": res["violations"]}, f, indent=1)
    print(json.dumps({"correct": bool(res["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if res["correct"] else 1


def selftest(_args):
    binary = build()
    run_dir = os.path.join(build_root(), "run", "selftest")
    os.makedirs(run_dir, exist_ok=True)
    r = subprocess.run([binary, "--selftest", "--run-dir", run_dir], cwd=ROOT)
    err = check_trace_file(os.path.join(run_dir, "selftest-trace.json"))
    print("selftest %-28s %s" % ("trace_file_pairs_match", err or "ok"))
    return 0 if r.returncode == 0 and err is None else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(args):
    spec = load_spec()
    binary = build()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    out = {"provenance": None, "runs": args.repeat, "seconds": args.seconds,
           "workloads": {}}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, args.repeat + 1):
            res, prov, _ = run_workload(binary, w, seed, args.seconds, 0)
            out["provenance"] = out["provenance"] or prov
            ok = ok and res["correct"]
            for name, m in res["end_to_end"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d: %s" % (w, seed, ", ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in sorted(res["end_to_end"].items()))))
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            stats[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0}
            print("%-5s %-12s median %-12.6g spread %.3f" % (w, name, med,
                                                               stats[name]["spread"]))
        out["workloads"][w] = stats
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="perfbench-results.json")
    args = p.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        raise SystemExit("perfbench: BENCHMARK.json not found next to perfbench/")
    if args.selftest:
        return selftest(args)
    if args.repeat:
        return repeat(args)
    if not args.workload:
        p.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
