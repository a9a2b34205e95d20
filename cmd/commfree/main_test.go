package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLISpeaksThePipeline builds the command and drives it the way the
// service is driven: every strategy name, auto included, runs the one
// compile pipeline, whose trace shows the selection with one class span
// per distinct partition and then verify; "selective" is refused as a
// request; and a nest past the iteration limit is refused by admission,
// at once and before anything is printed.
func TestCLISpeaksThePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "commfree")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		var o, e strings.Builder
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			code = exit.ExitCode()
		case err != nil:
			t.Fatalf("commfree %v: %v", args, err)
		}
		return o.String(), e.String(), code
	}

	for _, strategy := range []string{"auto", "mars"} {
		out, errOut, code := run("-strategy", strategy, "-trace")
		if code != 0 {
			t.Fatalf("-strategy %s -trace: exit %d\n%s", strategy, code, errOut)
		}
		if (strategy == "auto") != strings.Contains(out, "\nselected: ") {
			t.Errorf("-strategy %s: the ranking is printed exactly under auto\n%s", strategy, out)
		}
		_, tree, ok := strings.Cut(out, "== pipeline trace ==\n")
		if !ok {
			t.Fatalf("-strategy %s -trace printed no trace\n%s", strategy, out)
		}
		// Top-level stages at two spaces, their children at four.
		var top []string
		classes := 0
		for _, line := range strings.Split(tree, "\n") {
			name, _, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
			switch indent := len(line) - len(strings.TrimLeft(line, " ")); {
			case indent == 2:
				top = append(top, name)
			case indent == 4 && name == "class" && len(top) > 0 && top[len(top)-1] == "selection":
				classes++
			}
		}
		if strings.Join(top, " ") != "parse selection verify" || classes == 0 {
			t.Errorf("-strategy %s -trace: top-level spans %v with %d class spans under selection, want parse selection verify with at least one\n%s", strategy, top, classes, tree)
		}
	}

	if _, errOut, code := run("-strategy", "selective"); code != 1 || !strings.Contains(errOut, `unknown strategy "selective"`) {
		t.Errorf(`-strategy selective: exit %d, stderr %q; want exit 1, "unknown strategy"`, code, errOut)
	}

	huge := filepath.Join(dir, "huge.cf")
	if err := os.WriteFile(huge, []byte("for i = 1 to 100000\n for j = 1 to 100000\n  A[i, j] = A[i, j - 1] + 1\n end\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, errOut, code := run("-file", huge, "-strategy", "auto", "-trace")
	if d := time.Since(start); d > time.Second {
		t.Errorf("10¹⁰-iteration nest refused after %v, want < 1s", d)
	}
	if code != 1 || !strings.Contains(errOut, "nest spans more than 4194304 iterations") || out != "" {
		t.Errorf("10¹⁰-iteration nest: exit %d, stdout %q, stderr %q; want exit 1 with the admission refusal and nothing printed", code, out, errOut)
	}
}
