package commfree_test

import (
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestREADMEQuickStart runs every `go run ./…` line of the README's
// quick-start block except the daemon's: each package is built once,
// then run with the line's arguments in a scratch directory that sees
// the repository's testdata, and each must exit 0.
func TestREADMEQuickStart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every quick-start command")
	}
	start := time.Now()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "Or run the bundled programs:\n\n```sh\n")
	if !ok {
		t.Fatal("README has no quick-start block")
	}
	block, _, _ = strings.Cut(block, "```")
	var cmds [][]string
	var pkgs []string
	for _, line := range strings.Split(block, "\n") {
		line, _, _ = strings.Cut(line, " #")
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "go" || f[1] != "run" || !strings.HasPrefix(f[2], "./") || f[2] == "./cmd/commfreed" {
			continue
		}
		cmds = append(cmds, f[2:])
		if !slices.Contains(pkgs, f[2]) {
			pkgs = append(pkgs, f[2])
		}
	}
	if len(cmds) < 10 {
		t.Fatalf("found %d quick-start commands, want the examples and the tools", len(cmds))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "bin") + string(filepath.Separator)
	build := exec.Command("go", append([]string{"build", "-o", bin}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
	}
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "work")
	if err := os.Mkdir(work, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(testdata, filepath.Join(work, "testdata")); err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		run := exec.Command(filepath.Join(bin, path.Base(c[0])), c[1:]...)
		run.Dir = work
		if out, err := run.CombinedOutput(); err != nil {
			t.Errorf("go run %s: %v\n%s", strings.Join(c, " "), err, out)
		}
	}
	t.Logf("%d commands from %d packages in %v", len(cmds), len(pkgs), time.Since(start).Round(time.Millisecond))
}
