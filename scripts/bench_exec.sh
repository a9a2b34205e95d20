#!/usr/bin/env bash
# bench_exec.sh — measure the executors and maintain BENCH_exec.json.
#
# Rows: ExecSequential map (exec.Sequential) and compiled
# (Program.Sequential, the dense reference); ExecParallel map (the
# oracle) and kernel; ExecParallelTraced kernel. Entries recorded
# before PR 12 also carry ExecParallel/compiled rows of the dense
# parallel engine that PR removed; they are history and still parse.
#
#   scripts/bench_exec.sh append [benchtime]   run the full benchmark set
#       (default -benchtime=200x, so the kernel rows are warm and their
#       allocs/op settle), parse the -benchmem output, and append a dated
#       entry — results, map-vs-engine speedups, and the kernel acceptance
#       check — to BENCH_exec.json. Set BENCH_NOTE to label the entry.
#
#   scripts/bench_exec.sh gate [benchtime]     run BenchmarkExecParallel
#       (default -benchtime=200x) and fail unless the matmul kernel row
#       (a) allocates no more per op than the latest recorded kernel row —
#       a count, the same on every machine — and (b) is at least 50x
#       faster than the matmul map-oracle row of the same run (≈ 300x
#       here). Both are things one run can decide: a 25 µs benchmark's
#       ns/op does not compare across machines, or across minutes on a
#       shared one. CI runs this so an accidental slow path cannot land
#       silently.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-append}"
case "$mode" in
  append) benchtime="${2:-200x}"; pattern='Exec(Sequential|Parallel|ParallelTraced)$' ;;
  gate)   benchtime="${2:-200x}"; pattern='ExecParallel$' ;;
  *) echo "usage: $0 [append|gate] [benchtime]" >&2; exit 2 ;;
esac

raw="$(go test ./internal/exec -run=NONE -bench="$pattern" -benchtime="$benchtime" -benchmem)"
echo "$raw"

BENCH_MODE="$mode" BENCH_RAW="$raw" python3 - <<'PY'
import json, os, re, sys, datetime

mode = os.environ["BENCH_MODE"]
raw = os.environ["BENCH_RAW"]
path = "BENCH_exec.json"

# Benchmark lines: BenchmarkExecParallel/matmul/kernel-16  50  20989 ns/op  9928 B/op  54 allocs/op
row_re = re.compile(
    r"^Benchmark(ExecSequential|ExecParallelTraced|ExecParallel)/"
    r"([\w-]+)/(\w+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op",
    re.M)
results = [
    {"benchmark": b, "nest": nest, "engine": eng,
     "ns_op": int(float(ns)), "b_op": int(bo), "allocs_op": int(ao)}
    for b, nest, eng, ns, bo, ao in row_re.findall(raw)
]
if not results:
    sys.exit("bench_exec: no benchmark rows parsed from output")

def find(rs, bench, nest, engine):
    for r in rs:
        if (r["benchmark"], r["nest"], r["engine"]) == (bench, nest, engine):
            return r
    return None

doc = json.load(open(path))

def latest_kernel(entries):
    """The most recent recorded ExecParallel matmul kernel row."""
    for e in reversed(entries):
        r = find(e["results"], "ExecParallel", "matmul", "kernel")
        if r is not None:
            return r
    return None

prev_kern = latest_kernel(doc["entries"])
kern = find(results, "ExecParallel", "matmul", "kernel")
if kern is None or prev_kern is None:
    sys.exit("bench_exec: no ExecParallel/matmul/kernel row to compare")
ratio = kern["ns_op"] / prev_kern["ns_op"]

if mode == "gate":
    oracle = find(results, "ExecParallel", "matmul", "map")
    if oracle is None:
        sys.exit("bench_exec: no ExecParallel/matmul/map row to compare")
    speedup = oracle["ns_op"] / kern["ns_op"]
    ok = kern["allocs_op"] <= prev_kern["allocs_op"] and speedup >= 50
    print(f"gate: ExecParallel/matmul/kernel: {kern['allocs_op']} allocs/op vs recorded "
          f"{prev_kern['allocs_op']}; {kern['ns_op']} ns/op, {speedup:.0f}x faster than the "
          f"map oracle's {oracle['ns_op']} in this run (limit 50x) " + ("OK" if ok else "REGRESSED"))
    sys.exit(0 if ok else "bench_exec: the matmul kernel allocates more than BENCH_exec.json records "
             "or is no longer 50x faster than the map oracle")

cpu = goos = goarch = ""
for line in raw.splitlines():
    if line.startswith("cpu:"):
        cpu = line.split(":", 1)[1].strip()
    elif line.startswith("goos:"):
        goos = line.split(":", 1)[1].strip()
    elif line.startswith("goarch:"):
        goarch = line.split(":", 1)[1].strip()

# Speedups: the map oracle against the dense executor of each benchmark.
speedups = []
for bench, eng in (("ExecSequential", "compiled"), ("ExecParallel", "kernel")):
    for nest in ("matmul", "stencil", "conv2d"):
        base = find(results, bench, nest, "map")
        r = find(results, bench, nest, eng)
        if base is None or r is None:
            continue
        speedups.append({
            "benchmark": bench, "nest": nest, "engine": eng,
            "ns_op_ratio": round(base["ns_op"] / r["ns_op"], 1),
            "allocs_op_ratio": round(base["allocs_op"] / max(1, r["allocs_op"]), 1),
        })

acceptance = (f"ExecParallel matmul kernel: {kern['ns_op']} ns/op "
              f"({1 / ratio:.1f}x vs previous kernel entry; regressions bounded by gate mode)")

entry = {
    "date": datetime.date.today().isoformat(),
    "note": os.environ.get("BENCH_NOTE", "appended by scripts/bench_exec.sh"),
    "cpu": cpu, "goos": goos, "goarch": goarch,
    "results": results,
    "speedups": speedups,
    "acceptance_check": acceptance,
}
doc["entries"].append(entry)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"bench_exec: appended {entry['date']} entry ({len(results)} rows) to {path}")
print(f"bench_exec: {acceptance}")
PY
