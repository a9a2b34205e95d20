#!/usr/bin/env bash
# bench_store.sh — measure the plan-store serving tiers and maintain
# BENCH_store.json.
#
# Rows: BenchmarkStoreColdCompile (fresh service, empty store: the full
# pipeline plus the write-through), BenchmarkStoreDiskWarm (fresh service
# over a populated store: read, revive from the record's Ψ, decode the
# plan for the Compile response) and BenchmarkStoreMemoryHit (live LRU
# entry), all in internal/service/bench_store_test.go.
#
#   scripts/bench_store.sh append [benchtime]   run the three tiers (default
#       -benchtime=200x), parse the -benchmem output and append a dated
#       entry with the tier ratios to BENCH_store.json. Set BENCH_NOTE to
#       label the entry.
#
#   scripts/bench_store.sh gate [benchtime]     run them (default
#       -benchtime=100x) and fail unless disk_warm sits strictly between
#       memory_hit and cold AND costs at most half a cold compile: a store
#       tier that is not clearly cheaper than compiling does not earn its
#       keep. The tiers are compared within the one run, so the gate needs
#       no recorded entry and does not depend on the machine's speed.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-append}"
case "$mode" in
  append) benchtime="${2:-200x}" ;;
  gate)   benchtime="${2:-100x}" ;;
  *) echo "usage: $0 [append|gate] [benchtime]" >&2; exit 2 ;;
esac

raw="$(go test ./internal/service -run=NONE -bench='^BenchmarkStore' -benchtime="$benchtime" -benchmem)"
echo "$raw"

BENCH_MODE="$mode" BENCH_RAW="$raw" python3 - <<'PY'
import json, os, re, sys, datetime

mode = os.environ["BENCH_MODE"]
raw = os.environ["BENCH_RAW"]
path = "BENCH_store.json"
tiers = {"StoreColdCompile": "cold", "StoreDiskWarm": "disk_warm", "StoreMemoryHit": "memory_hit"}

# BenchmarkStoreDiskWarm-2   200   415903 ns/op   70693 B/op   804 allocs/op
row_re = re.compile(
    r"^Benchmark(Store\w+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op", re.M)
results = [
    {"benchmark": name, "tier": tiers[name], "ns_op": int(float(ns)), "b_op": int(bo), "allocs_op": int(ao)}
    for name, ns, bo, ao in row_re.findall(raw) if name in tiers
]
ns = {r["tier"]: r["ns_op"] for r in results}
if set(ns) != set(tiers.values()):
    sys.exit(f"bench_store: expected the three tiers, parsed {sorted(ns)}")

ratios = {
    "cold_over_disk_warm_ns": round(ns["cold"] / ns["disk_warm"], 1),
    "disk_warm_over_memory_hit_ns": round(ns["disk_warm"] / ns["memory_hit"], 1),
    "cold_over_memory_hit_ns": round(ns["cold"] / ns["memory_hit"], 1),
    "disk_warm_over_cold_ns": round(ns["disk_warm"] / ns["cold"], 2),
}
ok = ns["memory_hit"] < ns["disk_warm"] < ns["cold"] and 2 * ns["disk_warm"] <= ns["cold"]
verdict = (f"memory_hit {ns['memory_hit']} < disk_warm {ns['disk_warm']} < cold {ns['cold']} ns/op, "
           f"disk_warm = {ratios['disk_warm_over_cold_ns']}x cold (limit 0.5x)")

if mode == "gate":
    print("gate: " + verdict + (" OK" if ok else " FAILED"))
    sys.exit(0 if ok else "bench_store: the disk-warm tier is not between a memory hit and half a cold compile")

cpu = goos = goarch = ""
for line in raw.splitlines():
    if line.startswith("cpu:"):
        cpu = line.split(":", 1)[1].strip()
    elif line.startswith("goos:"):
        goos = line.split(":", 1)[1].strip()
    elif line.startswith("goarch:"):
        goarch = line.split(":", 1)[1].strip()

doc = json.load(open(path))
doc["entries"].append({
    "date": datetime.date.today().isoformat(),
    "note": os.environ.get("BENCH_NOTE", "appended by scripts/bench_store.sh"),
    "cpu": cpu, "goos": goos, "goarch": goarch,
    "results": results,
    "ratios": ratios,
    "acceptance_check": verdict + (" — holds" if ok else " — VIOLATED"),
})
with open(path, "w") as f:
    json.dump(doc, f, indent=2, ensure_ascii=False)
    f.write("\n")
print(f"bench_store: appended {datetime.date.today().isoformat()} entry to {path}")
PY
