#!/usr/bin/env bash
# bench_exec.sh — measure the executors and maintain BENCH_exec.json.
#
# Rows: ExecSequential map (exec.Sequential) and compiled
# (Program.Sequential, the keyed view of the dense reference);
# ExecParallel map (the oracle) and kernel; ExecParallelTraced kernel;
# and from internal/service, ExecuteRevived (a stored plan's first
# execute: revive, build program, kernel and dense reference, run,
# validate) and ExecuteWarm/{16,32,64} service and kernel (a cache-hot
# Service.Execute of the M³ matrix product beside Kernel.Run of the same
# kernel). The oldest entries also carry ExecParallel/compiled rows of a
# dense parallel engine since removed; they are history and still parse.
#
#   scripts/bench_exec.sh append [benchtime]   run the full benchmark set
#       (default -benchtime=200x, so the kernel rows are warm and their
#       allocs/op settle), parse the -benchmem output, and append a dated
#       entry — results, map-vs-engine speedups, and the kernel acceptance
#       check — to BENCH_exec.json. Set BENCH_NOTE to label the entry. Set
#       BENCH_BASELINE_RAW to a file holding the same benchmarks' output
#       from another commit (and BENCH_BASELINE_NOTE to name it) to record
#       those rows beside the new ones.
#
#   scripts/bench_exec.sh gate [benchtime]     run BenchmarkExecParallel,
#       BenchmarkExecuteRevived and BenchmarkExecuteWarm/64 (default
#       -benchtime=200x) and fail unless (a) the matmul kernel row
#       allocates no more per op than the latest recorded kernel row — a
#       count, the same on every machine — (b) it is at least 50x faster
#       than the matmul map-oracle row of the same run (≈ 300x on a 2-core Xeon VM), (c)
#       a warm Service.Execute at 64³ takes at most 1.5x the Kernel.Run of
#       the same run, and (d) a revived execute allocates no more per op
#       than the latest recorded ExecuteRevived row, give or take the 1%
#       a collection landing in a fresh service moves it. All are things one
#       run can decide: a 25 µs benchmark's ns/op does not compare across
#       machines, or across minutes on a shared one. CI runs this so an
#       accidental slow path cannot land silently.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-append}"
case "$mode" in
  append) benchtime="${2:-200x}"; pattern='Exec(Sequential|Parallel|ParallelTraced)$'; svc=('^BenchmarkExecute(Revived|Warm)$') ;;
  # A pattern with a sub-benchmark level would skip ExecuteRevived, which has none.
  gate)   benchtime="${2:-200x}"; pattern='ExecParallel$'; svc=('^BenchmarkExecuteRevived$' '^BenchmarkExecuteWarm$/^64$') ;;
  *) echo "usage: $0 [append|gate] [benchtime]" >&2; exit 2 ;;
esac

raw="$(go test ./internal/exec -run=NONE -bench="$pattern" -benchtime="$benchtime" -benchmem)"
echo "$raw"
for p in "${svc[@]}"; do
  svcraw="$(go test ./internal/service -run=NONE -bench="$p" -benchtime="$benchtime" -benchmem)"
  echo "$svcraw"
  raw="$raw
$svcraw"
done

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
# BenchmarkExecuteRevived-2  200  323116 ns/op  168700 B/op  840 allocs/op (matmul 8³)
# BenchmarkExecuteWarm/64/service-2  200  1652758 ns/op  237463 B/op  57 allocs/op
revived_re = re.compile(
    r"^BenchmarkExecuteRevived(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op", re.M)
warm_re = re.compile(
    r"^BenchmarkExecuteWarm/(\d+)/(\w+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op", re.M)

def row(b, nest, eng, ns, bo, ao):
    return {"benchmark": b, "nest": nest, "engine": eng,
            "ns_op": int(float(ns)), "b_op": int(bo), "allocs_op": int(ao)}

def parse(text):
    return ([row(b, nest, eng, ns, bo, ao) for b, nest, eng, ns, bo, ao in row_re.findall(text)] +
            [row("ExecuteRevived", "matmul8", "service", ns, bo, ao) for ns, bo, ao in revived_re.findall(text)] +
            [row("ExecuteWarm", "matmul" + m, eng, ns, bo, ao) for m, eng, ns, bo, ao in warm_re.findall(text)])

results = parse(raw)
if not results:
    sys.exit("bench_exec: no benchmark rows parsed from output")

def find(rs, bench, nest, engine):
    for r in rs:
        if (r["benchmark"], r["nest"], r["engine"]) == (bench, nest, engine):
            return r
    return None

doc = json.load(open(path))

def latest(entries, bench, nest, engine):
    """The most recent recorded row of (bench, nest, engine)."""
    for e in reversed(entries):
        r = find(e["results"], bench, nest, engine)
        if r is not None:
            return r
    return None

prev_kern = latest(doc["entries"], "ExecParallel", "matmul", "kernel")
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
    svc, run = find(results, "ExecuteWarm", "matmul64", "service"), find(results, "ExecuteWarm", "matmul64", "kernel")
    rev, prev_rev = find(results, "ExecuteRevived", "matmul8", "service"), latest(doc["entries"], "ExecuteRevived", "matmul8", "service")
    if None in (svc, run, rev, prev_rev):
        sys.exit("bench_exec: missing an ExecuteWarm/64 or ExecuteRevived row, run or recorded")
    warm_ok = svc["ns_op"] <= 1.5 * run["ns_op"]
    # A fresh service per op lands a collection in a few of them: ±2 allocs/op.
    rev_ok = rev["allocs_op"] <= 1.01 * prev_rev["allocs_op"]
    print(f"gate: ExecuteWarm/64: Service.Execute {svc['ns_op']} ns/op, {svc['ns_op'] / run['ns_op']:.2f}x the "
          f"Kernel.Run of this run (limit 1.5x) " + ("OK" if warm_ok else "REGRESSED"))
    print(f"gate: ExecuteRevived: {rev['allocs_op']} allocs/op vs recorded {prev_rev['allocs_op']} (limit +1%) "
          + ("OK" if rev_ok else "REGRESSED"))
    failed = [msg for good, msg in (
        (ok, "the matmul kernel allocates more than BENCH_exec.json records or is no longer 50x faster than the map oracle"),
        (warm_ok, "a warm Service.Execute at 64³ takes more than 1.5x Kernel.Run"),
        (rev_ok, "a revived execute allocates more than BENCH_exec.json records")) if not good]
    sys.exit("bench_exec: " + "; ".join(failed) if failed else 0)

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
base_path = os.environ.get("BENCH_BASELINE_RAW")
if base_path:
    base = parse(open(base_path).read())
    if not base:
        sys.exit(f"bench_exec: no benchmark rows parsed from {base_path}")
    entry["baseline"] = {"note": os.environ.get("BENCH_BASELINE_NOTE", base_path), "results": base}
doc["entries"].append(entry)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"bench_exec: appended {entry['date']} entry ({len(results)} rows) to {path}")
print(f"bench_exec: {acceptance}")
PY
