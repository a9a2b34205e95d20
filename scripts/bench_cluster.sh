#!/usr/bin/env bash
# bench_cluster.sh — measure the serving cluster under open-loop load and
# maintain BENCH_cluster.json.
#
# Two operating points, each run twice with the SAME seed (SLO admission
# vs the queue-depth-only baseline), on a 3-node in-process fleet with
# one worker and a 256-deep queue per node:
#
#   knee     steady 200/s, overload 5x = 1000/s — right at fleet
#            capacity. Both modes keep goodput; the difference is the
#            tail: the deep queue is standing latency in queue mode,
#            while SLO admission keeps admitted p99 inside the target.
#
#   assault  overload 20x = 4000/s — far past any plausible capacity.
#            The queue-mode buffer becomes ~seconds of bufferbloat and
#            goodput collapses; SLO admission sheds hard, at least
#            halves the median latency, and holds more goodput. (The
#            extreme tail is CPU starvation on a saturated box, which
#            no admission policy can bound — the stable promises here
#            are relative.)
#
#   scripts/bench_cluster.sh append [seed]   full-length phases, append a
#       dated entry (both points, both modes, plus the comparison) to
#       BENCH_cluster.json. Set BENCH_NOTE to label the entry.
#
#   scripts/bench_cluster.sh gate [seed]     short phases, assert the
#       invariant acceptance conditions and fail on breach without
#       touching the JSON. CI runs this: replay digests must match, SLO
#       admission must not regress below the queue baseline at the knee,
#       knee admitted p99 must stay inside the target, and the shed
#       machinery must engage under assault. The assault-point
#       comparisons (goodput win, halved median) are recorded but not
#       gated — ambient CPU contention can flatter the baseline there.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-append}"
seed="${2:-42}"
case "$mode" in
  append) phases=(-warmup 2s -steady 3s -overload 6s -recovery 3s) ;;
  gate)   phases=(-warmup 1s -steady 2s -overload 4s -recovery 2s) ;;
  *) echo "usage: $0 [append|gate] [seed]" >&2; exit 2 ;;
esac

# -node-slo 60ms: each node gets well under half the 150ms end-to-end
# budget, so even a shed-then-failover journey (two pool waits) lands
# inside the client-facing SLO with margin for the hop overhead.
fleet=(-local 3 -workers 1 -queue-depth 256 -rate 200 -node-slo 60ms)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/commload" ./cmd/commload

run() { # run <point> <overload-x> <admission>
  echo "bench_cluster: $1 x$2 admission=$3 seed=$seed" >&2
  "$tmp/commload" "${fleet[@]}" "${phases[@]}" -seed "$seed" \
    -overload-x "$2" -admission "$3" -out "$tmp/$1_$3.json" 2>&1 | tail -n 6 >&2
}

run knee    5  slo
run knee    5  queue
run assault 20 slo
run assault 20 queue

BENCH_MODE="$mode" BENCH_SEED="$seed" BENCH_TMP="$tmp" python3 - <<'PY'
import json, os, sys, datetime

mode, seed, tmp = os.environ["BENCH_MODE"], int(os.environ["BENCH_SEED"]), os.environ["BENCH_TMP"]
path = "BENCH_cluster.json"

def load(point, adm):
    with open(f"{tmp}/{point}_{adm}.json") as f:
        return json.load(f)

def overload(rep):
    return next(p for p in rep["phases"] if p["name"] == "overload")

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
    print(f"bench_cluster: {label} {name}: {detail}")

points = {}
for point in ("knee", "assault"):
    slo, queue = load(point, "slo"), load(point, "queue")
    so, qo = overload(slo), overload(queue)
    target = slo["slo_target_ms"]
    ratio = so["goodput_rps"] / qo["goodput_rps"] if qo["goodput_rps"] else float("inf")
    points[point] = {
        "slo": slo, "queue": queue,
        "comparison": {
            "slo_overload_goodput_rps": round(so["goodput_rps"], 1),
            "queue_overload_goodput_rps": round(qo["goodput_rps"], 1),
            "goodput_ratio": round(ratio, 2),
            "slo_admitted_p99_ms": so["admitted_p99_ms"],
            "slo_overload_p50_ms": so["p50_ms"],
            "queue_overload_p50_ms": qo["p50_ms"],
            "queue_overload_p99_ms": qo["admitted_p99_ms"],
            "slo_shed_rate": so["shed_rate"],
            "digest_match": slo["digest"] == queue["digest"],
        },
    }
    # Same seed ⇒ byte-identical request schedule in both modes; anything
    # else means the harness is not open-loop deterministic.
    check(f"{point}: replay digest", slo["digest"] == queue["digest"],
          f"slo={slo['digest']} queue={queue['digest']}")
    # SLO admission must never cost goodput vs the baseline (10% noise floor).
    check(f"{point}: goodput", ratio >= 0.9,
          f"slo {so['goodput_rps']:.1f}/s vs queue {qo['goodput_rps']:.1f}/s ({ratio:.2f}x, need >= 0.9)",
          gating=(point == "knee"))

# At the knee the fleet is loaded but not starved: the controller's full
# promise — admitted p99 inside the SLO — must hold.
kc = points["knee"]["comparison"]
check("knee: admitted p99 within SLO", kc["slo_admitted_p99_ms"] <= points["knee"]["slo"]["slo_target_ms"],
      f"{kc['slo_admitted_p99_ms']:.1f}ms vs {points['knee']['slo']['slo_target_ms']:.0f}ms target")

# Under assault CPU starvation owns absolute latency on any shared box,
# so the stable promises are relative: the median at least halves vs the
# bufferbloated baseline, and the shed machinery engages.
ac = points["assault"]["comparison"]
check("assault: median latency halved vs baseline",
      ac["slo_overload_p50_ms"] <= 0.5 * ac["queue_overload_p50_ms"],
      f"slo p50 {ac['slo_overload_p50_ms']:.1f}ms vs queue p50 {ac['queue_overload_p50_ms']:.1f}ms (need <= 0.5x)",
      gating=False)
check("assault: controller engaged", ac["slo_shed_rate"] > 0,
      f"shed rate {ac['slo_shed_rate']:.3f}")

failed = [name for name, ok, gating in checks if not ok and gating]
missed = [name for name, ok, gating in checks if not ok and not gating]
misses = f" (not gated, missed: {', '.join(missed)})" if missed else ""
if mode == "gate":
    if failed:
        sys.exit("bench_cluster: gate FAILED: " + ", ".join(failed) + misses)
    print("bench_cluster: gate passed" + misses)
    sys.exit(0)

entry = {
    "date": datetime.date.today().isoformat(),
    "note": os.environ.get("BENCH_NOTE", "appended by scripts/bench_cluster.sh"),
    "seed": seed,
    "points": {p: {"slo": v["slo"], "queue": v["queue"], "comparison": v["comparison"]}
               for p, v in points.items()},
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
