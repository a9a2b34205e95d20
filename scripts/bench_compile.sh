#!/usr/bin/env bash
# bench_compile.sh — measure cold compiles and maintain BENCH_compile.json.
#
# Rows: BenchmarkCompileCold/<family>/<extent>/<strategy> — one cold
# Service.Compile on a fresh service: families matmul (L5) and stencil
# (L4 shape) at extents 8/16/32 under duplicate, auto and mars; twostmt
# (L1 shape) under minimal-duplicate and redundant (L3 shape) under mars
# at extents 16/32.
#
#   scripts/bench_compile.sh append [benchtime]   run the full set (default
#       -benchtime=5x), parse the -benchmem output and append a dated entry
#       to BENCH_compile.json. Set BENCH_NOTE to label the entry. Set
#       BENCH_BASELINE_RAW to a file holding the same benchmark's output
#       from another commit (and BENCH_BASELINE_NOTE to name it) to record
#       those rows beside the new ones, with the per-row speedups.
#
#   scripts/bench_compile.sh gate [benchtime]     run extents 8 and 16
#       (default -benchtime=3x) and fail if, over those rows, the geometric
#       mean of ns/op regressed more than 2x, or that of allocs/op more
#       than 1.1x, against the latest recorded entry. allocs/op is a
#       near-exact count, so one run decides it; ns/op gets the wide
#       bound. CI runs this so a re-grown compile path cannot land
#       silently.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-append}"
case "$mode" in
  append) benchtime="${2:-5x}"; pattern='^BenchmarkCompileCold$' ;;
  gate)   benchtime="${2:-3x}"; pattern='^BenchmarkCompileCold$/./^(8|16)$' ;;
  *) echo "usage: $0 [append|gate] [benchtime]" >&2; exit 2 ;;
esac

raw="$(go test . -run=NONE -bench="$pattern" -benchtime="$benchtime" -benchmem)"
echo "$raw"

BENCH_MODE="$mode" BENCH_RAW="$raw" python3 - <<'PY'
import json, math, os, re, sys, datetime

mode = os.environ["BENCH_MODE"]
raw = os.environ["BENCH_RAW"]
path = "BENCH_compile.json"

# BenchmarkCompileCold/matmul/16/duplicate-2  5  18049142 ns/op  6503610 B/op  59556 allocs/op
row_re = re.compile(
    r"^BenchmarkCompileCold/(\w+)/(\d+)/([\w-]+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op",
    re.M)

def parse(text):
    return [
        {"family": fam, "extent": int(ext), "strategy": strat,
         "ns_op": int(float(ns)), "b_op": int(bo), "allocs_op": int(ao)}
        for fam, ext, strat, ns, bo, ao in row_re.findall(text)
    ]

def key(r):
    return (r["family"], r["extent"], r["strategy"])

def geomean_ratio(new, old, field="ns_op"):
    """Geometric mean of new/old field over the rows both sides have."""
    olds = {key(r): r for r in old}
    logs = [math.log(max(1, r[field]) / max(1, olds[key(r)][field])) for r in new if key(r) in olds]
    if not logs:
        sys.exit("bench_compile: no rows in common with the recorded entry")
    return math.exp(sum(logs) / len(logs)), len(logs)

results = parse(raw)
if not results:
    sys.exit("bench_compile: no benchmark rows parsed from output")

doc = json.load(open(path))

if mode == "gate":
    if not doc["entries"]:
        sys.exit("bench_compile: BENCH_compile.json has no entry to gate against")
    failed = []
    for field, bound in (("ns_op", 2.0), ("allocs_op", 1.1)):
        ratio, n = geomean_ratio(results, doc["entries"][-1]["results"], field)
        status = "OK" if ratio <= bound else "REGRESSED"
        print(f"gate: CompileCold geomean over {n} rows: {ratio:.2f}x the recorded {field} (bound {bound}x) {status}")
        if ratio > bound:
            failed.append(f"{field} {ratio:.2f}x > {bound}x")
    if failed:
        sys.exit("bench_compile: cold compile regressed vs BENCH_compile.json: " + ", ".join(failed))
    sys.exit(0)

cpu = goos = goarch = ""
for line in raw.splitlines():
    if line.startswith("cpu:"):
        cpu = line.split(":", 1)[1].strip()
    elif line.startswith("goos:"):
        goos = line.split(":", 1)[1].strip()
    elif line.startswith("goarch:"):
        goarch = line.split(":", 1)[1].strip()

entry = {
    "date": datetime.date.today().isoformat(),
    "note": os.environ.get("BENCH_NOTE", "appended by scripts/bench_compile.sh"),
    "cpu": cpu, "goos": goos, "goarch": goarch,
    "results": results,
}
base_path = os.environ.get("BENCH_BASELINE_RAW")
if base_path:
    base = parse(open(base_path).read())
    if not base:
        sys.exit(f"bench_compile: no benchmark rows parsed from {base_path}")
    olds = {key(r): r for r in base}
    ratio, n = geomean_ratio(results, base)
    entry["baseline"] = {
        "note": os.environ.get("BENCH_BASELINE_NOTE", base_path),
        "results": base,
    }
    entry["speedups"] = [
        {"family": r["family"], "extent": r["extent"], "strategy": r["strategy"],
         "ns_op_ratio": round(olds[key(r)]["ns_op"] / r["ns_op"], 1),
         "allocs_op_ratio": round(olds[key(r)]["allocs_op"] / max(1, r["allocs_op"]), 1)}
        for r in results if key(r) in olds
    ]
    entry["geomean_speedup"] = round(1 / ratio, 1)
elif doc["entries"]:
    ratio, n = geomean_ratio(results, doc["entries"][-1]["results"])
    entry["vs_previous_entry"] = f"{ratio:.2f}x the previous entry's ns/op (geomean over {n} rows)"

doc["entries"].append(entry)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"bench_compile: appended {entry['date']} entry ({len(results)} rows) to {path}")
PY
