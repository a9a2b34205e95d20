#!/usr/bin/env bash
# bench_cluster.sh — measure the serving cluster's capacity under open-loop
# load, load it relative to that capacity, and maintain BENCH_cluster.json.
#
# The fleet is 3 in-process nodes with one worker and a 256-deep queue
# each, and a 200/s steady rate. Each run first measures the fleet's
# capacity on the box it runs on:
#
#   capacity  a ladder of overload multiples of the steady rate (5x, 10x,
#             15x, ...), in SLO mode with the gate's short phases, climbed
#             until a rung misses. Capacity is the highest rung whose
#             overload phase holds goodput >= 0.95x offered and admitted
#             p99 <= the 150ms target. In gate mode the knee's SLO run
#             replays the last rung that held, schedule and all.
#
# Then two operating points, each run twice with the SAME seed (SLO
# admission vs the queue-depth-only baseline):
#
#   knee     overload at 1x capacity. Both modes keep goodput; SLO
#            admission keeps admitted p99 inside the target.
#
#   assault  overload at 2x capacity. The queue-mode buffer becomes
#            standing latency and goodput falls; SLO admission sheds,
#            halves the median latency, and holds more goodput. (The
#            extreme tail is CPU starvation on a saturated box, which no
#            admission policy can bound: the stable promises are
#            relative.)
#
#   scripts/bench_cluster.sh append [seed...]   full-length phases, seeds
#       42 7 11 by default, each point with hedging at 50ms and at 0;
#       appends one dated entry (capacity, every run, the comparisons)
#       to BENCH_cluster.json. Set BENCH_NOTE to label the entry.
#
#   scripts/bench_cluster.sh gate [seed]        short phases, seed 42 by
#       default, hedging at 50ms; asserts the invariant acceptance
#       conditions and fails on breach without touching the JSON. CI runs
#       this: replay digests must match, SLO admission must not regress
#       below the queue baseline at the knee, knee admitted p99 must stay
#       inside the target, and the shed machinery must engage under
#       assault. The assault-point comparisons (goodput win, halved
#       median) are recorded but not gated: ambient CPU contention can
#       flatter the baseline there.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-append}"
case "$mode" in
  append|gate) shift || true ;;
  *) echo "usage: $0 [append [seed...] | gate [seed]]" >&2; exit 2 ;;
esac
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/commload" ./cmd/commload

BENCH_MODE="$mode" BENCH_TMP="$tmp" python3 - "$@" <<'PY'
import json, os, subprocess, sys, datetime

mode, tmp = os.environ["BENCH_MODE"], os.environ["BENCH_TMP"]
path = "BENCH_cluster.json"
short = {"warmup": 1, "steady": 2, "overload": 4, "recovery": 2}
if mode == "append":
    seeds = [int(s) for s in sys.argv[1:]] or [42, 7, 11]
    phases = {"warmup": 2, "steady": 3, "overload": 6, "recovery": 3}
    hedges = ["50ms", "0"]
else:
    seeds = [int(s) for s in sys.argv[1:2]] or [42]
    phases = short
    hedges = ["50ms"]

# -node-slo 60ms: each node gets well under half the 150ms end-to-end
# budget, so even a shed-then-failover journey (two pool waits) lands
# inside the client-facing SLO with margin for the hop overhead.
steady = 200
fleet = ["-local", "3", "-workers", "1", "-queue-depth", "256",
         "-rate", str(steady), "-node-slo", "60ms"]

def run(name, x, admission, seed, hedge, ph):
    print(f"bench_cluster: {name} x{x:g} admission={admission} hedge={hedge} seed={seed}",
          file=sys.stderr, flush=True)
    out = f"{tmp}/{name}.json"
    args = [f"{tmp}/commload", *fleet, "-seed", str(seed), "-overload-x", f"{x:g}",
            "-admission", admission, "-hedge-after", hedge, "-out", out]
    for k, v in ph.items():
        args += [f"-{k}", f"{v}s"]
    p = subprocess.run(args, stderr=subprocess.PIPE, text=True)
    sys.stderr.write("".join(p.stderr.splitlines(True)[-6:]))
    if p.returncode:
        sys.exit(f"bench_cluster: commload failed ({p.returncode})")
    with open(out) as f:
        return json.load(f)

def overload(rep):
    return next(p for p in rep["phases"] if p["name"] == "overload")

# Capacity: climb the ladder until a rung misses; the last rung that
# held is the capacity. The ladder runs on the first seed, with
# commload's default hedging.
ladder, cap_x = [], 0
for x in range(5, 401, 5):
    rep = run(f"ladder_x{x}", x, "slo", seeds[0], "50ms", short)
    o = overload(rep)
    offered = o["offered"] / short["overload"]
    held = o["goodput_rps"] >= 0.95 * offered and o["admitted_p99_ms"] <= rep["slo_target_ms"]
    ladder.append({"x": x, "offered_rps": round(offered, 1), "goodput_rps": round(o["goodput_rps"], 1),
                   "admitted_p99_ms": o["admitted_p99_ms"], "held": held})
    if not held:
        break
    cap_x = x
if cap_x == 0:
    sys.exit(f"bench_cluster: the fleet does not hold even {ladder[0]['x']}x the steady rate")
capacity = {"rps": cap_x * steady, "x": cap_x, "ladder": ladder}
print(f"bench_cluster: capacity {cap_x * steady}/s ({cap_x}x steady)", flush=True)
xs = {"knee": cap_x, "assault": 2 * cap_x}

# gating=False marks comparisons that hold on any lightly-loaded box but
# swing with ambient CPU contention (the assault point starves client
# and fleet alike, so a lucky scheduling window can flatter the
# baseline). They are recorded in the trajectory; CI fails only on the
# invariant checks. A miss of a non-gating check prints MISS, not FAIL,
# and the summary line names it.
checks = []
def check(name, ok, detail, gating=True):
    checks.append((name, ok, gating))
    label = "OK  " if ok else "FAIL" if gating else "MISS (recorded, not gated)"
    print(f"bench_cluster: {label} {name}: {detail}", flush=True)

runs = {}
for seed in seeds:
    for hedge in hedges:
        tag = f"seed={seed} hedge={hedge}"
        prefix = f"[{tag}] " if mode == "append" else ""
        points = {}
        for point, x in xs.items():
            slo = run(f"{point}_slo", x, "slo", seed, hedge, phases)
            queue = run(f"{point}_queue", x, "queue", seed, hedge, phases)
            so, qo = overload(slo), overload(queue)
            ratio = so["goodput_rps"] / qo["goodput_rps"] if qo["goodput_rps"] else float("inf")
            points[point] = {
                "x": x, "slo": slo, "queue": queue,
                "comparison": {
                    "slo_overload_goodput_rps": round(so["goodput_rps"], 1),
                    "queue_overload_goodput_rps": round(qo["goodput_rps"], 1),
                    "goodput_ratio": round(ratio, 2),
                    "slo_admitted_p99_ms": so["admitted_p99_ms"],
                    "slo_overload_p50_ms": so["p50_ms"],
                    "queue_overload_p50_ms": qo["p50_ms"],
                    "queue_overload_p99_ms": qo["admitted_p99_ms"],
                    "slo_shed_rate": so["shed_rate"],
                    "slo_hedges": so["hedges"],
                    "queue_hedges": qo["hedges"],
                    "digest_match": slo["digest"] == queue["digest"],
                },
            }
            # Same seed ⇒ byte-identical request schedule in both modes;
            # anything else means the harness is not open-loop deterministic.
            check(f"{prefix}{point}: replay digest", slo["digest"] == queue["digest"],
                  f"slo={slo['digest']} queue={queue['digest']}")
            # SLO admission must never cost goodput vs the baseline (10% noise floor).
            check(f"{prefix}{point}: goodput", ratio >= 0.9,
                  f"slo {so['goodput_rps']:.1f}/s vs queue {qo['goodput_rps']:.1f}/s ({ratio:.2f}x, need >= 0.9)",
                  gating=(point == "knee"))

        # At the knee the fleet is loaded but not starved: the controller's
        # full promise — admitted p99 inside the SLO — must hold.
        kc = points["knee"]["comparison"]
        target = points["knee"]["slo"]["slo_target_ms"]
        check(f"{prefix}knee: admitted p99 within SLO", kc["slo_admitted_p99_ms"] <= target,
              f"{kc['slo_admitted_p99_ms']:.1f}ms vs {target:.0f}ms target")

        # Under assault CPU starvation owns absolute latency on any shared
        # box, so the stable promises are relative: the median at least
        # halves vs the bufferbloated baseline, and the shed machinery
        # engages.
        ac = points["assault"]["comparison"]
        check(f"{prefix}assault: median latency halved vs baseline",
              ac["slo_overload_p50_ms"] <= 0.5 * ac["queue_overload_p50_ms"],
              f"slo p50 {ac['slo_overload_p50_ms']:.1f}ms vs queue p50 {ac['queue_overload_p50_ms']:.1f}ms (need <= 0.5x)",
              gating=False)
        check(f"{prefix}assault: controller engaged", ac["slo_shed_rate"] > 0,
              f"shed rate {ac['slo_shed_rate']:.3f}")
        runs[tag] = {"seed": seed, "hedge_after": hedge, "points": points}

failed = [name for name, ok, gating in checks if not ok and gating]
missed = [name for name, ok, gating in checks if not ok and not gating]
misses = f" (not gated, missed: {', '.join(missed)})" if missed else ""
if mode == "gate":
    if failed:
        sys.exit(f"bench_cluster: gate FAILED at capacity {capacity['rps']}/s: " + ", ".join(failed) + misses)
    print(f"bench_cluster: gate passed at capacity {capacity['rps']}/s" + misses)
    sys.exit(0)

entry = {
    "date": datetime.date.today().isoformat(),
    "note": os.environ.get("BENCH_NOTE", "appended by scripts/bench_cluster.sh"),
    "seeds": seeds,
    "steady_rps": steady,
    "capacity": capacity,
    "runs": runs,
    "acceptance": {name: ok for name, ok, _ in checks},
}
doc = json.load(open(path))
doc["entries"].append(entry)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"bench_cluster: appended {entry['date']} entry to {path}")
if failed:
    sys.exit("bench_cluster: acceptance FAILED: " + ", ".join(failed) + misses)
if missed:
    print("bench_cluster: acceptance passed" + misses)
PY
