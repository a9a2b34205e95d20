package commfree

// Differential fixtures for the affine front end: every X.cf under
// testdata/affine/ is an affine program paired with a hand-uniformized
// twin X.uniform.cf. The conformance dimension proves the pair compiles
// to the identical canonical plan and executes bit-identically — final
// state and machine accounting — across the oracle and
// specialized-kernel engines under every strategy, including under
// a seeded chaos schedule.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commfree/internal/conformance"
	"commfree/internal/lang"
)

func TestAffineFixturePairs(t *testing.T) {
	dir := filepath.Join("testdata", "affine")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".cf") || strings.HasSuffix(name, ".uniform.cf") {
			continue
		}
		pairs++
		t.Run(strings.TrimSuffix(name, ".cf"), func(t *testing.T) {
			affSrc, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			twinSrc, err := os.ReadFile(filepath.Join(dir, strings.TrimSuffix(name, ".cf")+".uniform.cf"))
			if err != nil {
				t.Fatalf("missing uniformized twin: %v", err)
			}
			a, err := lang.ParseAffine(string(affSrc))
			if err != nil {
				t.Fatalf("affine fixture does not parse: %v", err)
			}
			twin, err := lang.Parse(string(twinSrc))
			if err != nil {
				t.Fatalf("twin fixture does not parse: %v", err)
			}
			// Ground every symbolic constant deterministically; the value
			// must not matter (that is the point of elision), so spread
			// them out a bit.
			symVals := map[string]int64{}
			for i, n := range a.SymNames() {
				symVals[n] = int64(i)*3 - 2
			}
			if err := conformance.CheckNormalize(a, twin, symVals, 7); err != nil {
				t.Error(err)
			}
		})
	}
	if pairs < 4 {
		t.Fatalf("affine fixture pairs = %d, want at least 4", pairs)
	}
}
