#!/usr/bin/env bash
# bench_store.sh — measure the plan-store serving tiers and the store's
# write path, and maintain BENCH_store.json.
#
# Tier rows: BenchmarkStoreColdCompile (fresh service, empty store: the
# full pipeline plus the write-through), BenchmarkStoreDiskWarm (fresh
# service over a populated store: read, revive from the record's Ψ, decode
# the plan for the Compile response) and BenchmarkStoreMemoryHit (live LRU
# entry), all in internal/service/bench_store_test.go. Write-path rows:
# BenchmarkStorePut/records={64,4096} in internal/store — one Put of a
# new key into a store already holding that many records, best of three.
#
#   scripts/bench_store.sh append [benchtime]   run both sets (default
#       -benchtime=200x), parse the -benchmem output and append a dated
#       entry with the tier and Put ratios to BENCH_store.json. Set
#       BENCH_NOTE to label the entry.
#
#   scripts/bench_store.sh gate [benchtime]     run them (default
#       -benchtime=100x) and fail unless (a) disk_warm sits strictly
#       between memory_hit and cold AND costs at most half a cold compile:
#       a store tier that is not clearly cheaper than compiling does not
#       earn its keep; and (b) a Put at 4096 records allocates exactly what
#       a Put at 64 does and takes at most 3x as long: a Put writes one
#       file, whatever the store holds (with an index file rewritten per
#       Put the ratio was 28x). Everything is compared within the one run,
#       so the gate needs no recorded entry and does not depend on the
#       machine's speed.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-append}"
case "$mode" in
  append) benchtime="${2:-200x}" ;;
  gate)   benchtime="${2:-100x}" ;;
  *) echo "usage: $0 [append|gate] [benchtime]" >&2; exit 2 ;;
esac

raw="$(go test ./internal/service -run=NONE -bench='^BenchmarkStore' -benchtime="$benchtime" -benchmem)"
raw+=$'\n'"$(go test ./internal/store -run=NONE -bench='^BenchmarkStorePut$/^records=(64|4096)$' -benchtime="$benchtime" -benchmem -count=3)"
echo "$raw"

BENCH_MODE="$mode" BENCH_RAW="$raw" python3 - <<'PY'
import json, os, re, sys, datetime

mode = os.environ["BENCH_MODE"]
raw = os.environ["BENCH_RAW"]
path = "BENCH_store.json"
tiers = {"StoreColdCompile": "cold", "StoreDiskWarm": "disk_warm", "StoreMemoryHit": "memory_hit"}

# BenchmarkStoreDiskWarm-2   200   415903 ns/op   70693 B/op   804 allocs/op
row_re = re.compile(
    r"^Benchmark(Store[\w/=]+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op", re.M)
rows = [
    {"benchmark": name, "ns_op": int(float(ns)), "b_op": int(bo), "allocs_op": int(ao)}
    for name, ns, bo, ao in row_re.findall(raw)
]
def tiered(r, tier):
    return {"benchmark": r["benchmark"], "tier": tier, **r}
results = [tiered(r, tiers[r["benchmark"]]) for r in rows if r["benchmark"] in tiers]
ns = {r["tier"]: r["ns_op"] for r in results}
if set(ns) != set(tiers.values()):
    sys.exit(f"bench_store: expected the three tiers, parsed {sorted(ns)}")

# The Put rows repeat (-count=3): the disk's noise only ever adds, so a
# row's cost is its fastest repetition.
put = {}
for n in (64, 4096):
    reps = [r for r in rows if r["benchmark"] == f"StorePut/records={n}"]
    if not reps:
        sys.exit(f"bench_store: no StorePut/records={n} row parsed")
    put[n] = min(reps, key=lambda r: r["ns_op"])
    results.append(tiered(put[n], f"put_{n}"))

ratios = {
    "cold_over_disk_warm_ns": round(ns["cold"] / ns["disk_warm"], 1),
    "disk_warm_over_memory_hit_ns": round(ns["disk_warm"] / ns["memory_hit"], 1),
    "cold_over_memory_hit_ns": round(ns["cold"] / ns["memory_hit"], 1),
    "disk_warm_over_cold_ns": round(ns["disk_warm"] / ns["cold"], 2),
    "put_4096_over_put_64_ns": round(put[4096]["ns_op"] / put[64]["ns_op"], 2),
}
tiers_ok = ns["memory_hit"] < ns["disk_warm"] < ns["cold"] and 2 * ns["disk_warm"] <= ns["cold"]
put_ok = put[4096]["allocs_op"] == put[64]["allocs_op"] and put[4096]["ns_op"] <= 3 * put[64]["ns_op"]
ok = tiers_ok and put_ok
verdict = (f"memory_hit {ns['memory_hit']} < disk_warm {ns['disk_warm']} < cold {ns['cold']} ns/op, "
           f"disk_warm = {ratios['disk_warm_over_cold_ns']}x cold (limit 0.5x); "
           f"Put at 4096 records {put[4096]['ns_op']} ns/op, {put[4096]['allocs_op']} allocs/op = "
           f"{ratios['put_4096_over_put_64_ns']}x Put at 64 ({put[64]['ns_op']} ns/op, {put[64]['allocs_op']} allocs/op; "
           f"limit 3x, same allocs)")

if mode == "gate":
    print("gate: " + verdict + (" OK" if ok else " FAILED"))
    if not tiers_ok:
        sys.exit("bench_store: the disk-warm tier is not between a memory hit and half a cold compile")
    sys.exit(0 if put_ok else "bench_store: a Put costs more in a store that holds more records")

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
