package conformance

import (
	"strconv"
	"testing"
)

// clusterCrashSeeds are the seeded single-node-crash schedules the
// crash sweep replays; CLUSTER_CRASH_SEEDS overrides the count.
var clusterCrashSeeds = []int64{1, 7, 1993}

// TestClusterConformance3Node: a 3-node fleet must be bit-identical to
// a single node for the corpus × the strategies, on both served
// engines: the kernel, and the oracle that over-cap nests fall back to.
func TestClusterConformance3Node(t *testing.T) {
	for _, engine := range []string{"kernel", "oracle"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			if err := CheckCluster(3, engine, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterConformance5Node widens the fleet; placement changes but
// results must not.
func TestClusterConformance5Node(t *testing.T) {
	if testing.Short() {
		t.Skip("5-node sweep skipped in -short")
	}
	for _, engine := range []string{"kernel", "oracle"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			if err := CheckCluster(5, engine, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterConformanceCrash replays seeded single-node-crash
// schedules: the elected victim drops off the transport and out of the
// heartbeats for its window, and every request must still succeed with
// a bit-identical document (bounded failover, zero lost requests).
func TestClusterConformanceCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short")
	}
	n := seedCount("CLUSTER_CRASH_SEEDS", len(clusterCrashSeeds), len(clusterCrashSeeds))
	for _, seed := range clusterCrashSeeds[:n] {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			if err := CheckCluster(3, "", seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterBatchCoalesces: identical concurrent execute requests
// sprayed across the fleet coalesce at the plan's home node — one
// compile, one (or few) executions serving all of them.
func TestClusterBatchCoalesces(t *testing.T) {
	if err := CheckClusterBatch(3, 6); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPlacementPurity: same seed, same fleet ⇒ same placement.
// Two independently built fleets must agree on every corpus key's home.
func TestClusterPlacementPurity(t *testing.T) {
	if err := CheckCluster(3, "", 0); err != nil {
		t.Fatal(err)
	}
	// CheckCluster already asserts all nodes of one fleet agree; running
	// it twice asserts the derivation is reproducible across fleets.
	if err := CheckCluster(3, "", 0); err != nil {
		t.Fatal(err)
	}
}
