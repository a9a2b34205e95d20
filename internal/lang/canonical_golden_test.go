package lang_test

// lang.Canonical is the plan-cache key, the store record filename and
// the ring placement key, so its spelling of a *parsed* program must
// never move: a moved key orphans every persisted plan. The golden was
// generated before the RHS renderer was unified (PR 12) and pins the
// output for every program in lang.Corpus() and every testdata/**/*.cf,
// through the same front end the service uses (normalize.Source).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/normalize"
)

// canonicalForms renders every nest of src canonically; ok is false
// when no front end accepts the source (deliberate rejections).
func canonicalForms(src string) (out []string, ok bool) {
	if nests, err := lang.ParseProgram(src); err == nil {
		for _, n := range nests {
			out = append(out, lang.Canonical(n))
		}
		return out, true
	}
	if res, err := normalize.Source(src); err == nil {
		return []string{lang.Canonical(res.Nest)}, true
	}
	return nil, false
}

func TestCanonicalKeysDoNotMove(t *testing.T) {
	sources := map[string]string{}
	for i, src := range lang.Corpus() {
		sources[fmt.Sprintf("corpus/%03d", i)] = src
	}
	root := filepath.Join("..", "..", "testdata")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".cf") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		sources["testdata/"+filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	programs := 0
	for _, name := range names {
		forms, ok := canonicalForms(sources[name])
		if !ok {
			continue
		}
		for k, form := range forms {
			fmt.Fprintf(&b, "== %s #%d ==\n%s", name, k, form)
			programs++
		}
	}
	if programs < 20 {
		t.Fatalf("only %d programs parsed; the golden would be vacuous", programs)
	}

	golden := filepath.Join("testdata", "canonical.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("canonical keys moved (regenerating the golden orphans every stored plan):\n%s", firstDiff(got, string(want)))
	}
}

// firstDiff reports the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
