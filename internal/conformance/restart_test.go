package conformance

import (
	"strconv"
	"testing"
)

// TestRestartConformance: a store-backed service restarted against the
// same directory must be bit-identical with zero recompiles, on both
// served engines: the kernel, and the oracle that over-cap nests fall
// back to.
func TestRestartConformance(t *testing.T) {
	for _, engine := range []string{"kernel", "oracle"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			if err := CheckRestartWarm(engine, t.TempDir()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// restartTornSeeds are the seeded torn-write schedules the degraded
// restart check replays; RESTART_TORN_SEEDS overrides the count.
var restartTornSeeds = []int64{3, 11, 4242}

// TestRestartConformanceTorn replays seeded torn-write schedules: torn
// records recompile on restart (exactly as many as were torn), intact
// ones rehydrate, and every answer stays bit-identical.
func TestRestartConformanceTorn(t *testing.T) {
	if testing.Short() {
		t.Skip("torn-write sweep skipped in -short")
	}
	n := seedCount("RESTART_TORN_SEEDS", len(restartTornSeeds), len(restartTornSeeds))
	for _, seed := range restartTornSeeds[:n] {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			if err := CheckRestartTorn(t.TempDir(), seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMembershipConformance: join and leave epochs on a 3-node fleet
// move exactly the ring-computed key set and stay bit-identical to a
// single node, on both served engines: the kernel, and the oracle that
// over-cap nests fall back to.
func TestMembershipConformance(t *testing.T) {
	for _, engine := range []string{"kernel", "oracle"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			if err := CheckMembership(3, engine, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// membershipDropSeeds are the seeded migration-drop schedules;
// MEMBERSHIP_DROP_SEEDS overrides the count.
var membershipDropSeeds = []int64{5, 23, 1993}

// TestMembershipConformanceDrops replays seeded migration-drop
// schedules: dropped records recompile at their new homes, every
// request still answers bit-identically, zero lost mid-epoch.
func TestMembershipConformanceDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("migration-drop sweep skipped in -short")
	}
	n := seedCount("MEMBERSHIP_DROP_SEEDS", len(membershipDropSeeds), len(membershipDropSeeds))
	for _, seed := range membershipDropSeeds[:n] {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			if err := CheckMembership(3, "", seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}
