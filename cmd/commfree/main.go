// Command commfree is the compiler driver: it parses a loop-DSL file,
// derives a communication-free partition under the chosen strategy,
// transforms the loop into parallel forall form, assigns blocks to
// processors, and optionally executes the result on the simulated
// multicomputer to validate it against sequential execution.
//
// Usage:
//
//	commfree -file loop.cf [-strategy duplicate|auto|…] [-p 16] [-exec] [-chaos-seed 7] [-compare-baseline] [-trace]
//
// -strategy takes the names the compilation service takes: one of the
// five strategies, or auto, which prints the ranking of every
// allocation by simulated cost and compiles the cheapest. Every name
// runs the service's compile pipeline: admission (at most 1<<22
// iterations), selection, verify. A refusal or a verification failure
// exits 1 before the report.
//
// -trace prints the pipeline's span tree after the report: parse, then
// selection (deps, redundant, and one class span per distinct partition
// holding its partition, transform and assign), then verify, plus
// per-block execution spans under -exec.
//
// -remote URL submits the request to a running commfreed (or any node
// of a commfreed cluster — the fleet routes it to the plan's home node)
// instead of compiling in-process, and prints the service's JSON
// response. -strategy, -p, -exec, and -chaos-seed apply; the other
// local-pipeline flags do not.
//
// -cluster URL administers a running fleet through any member: -op
// status (default) prints membership epoch, peer health, and per-peer
// plan counts; -op join -peer NAME=URL and -op leave -peer NAME change
// the membership, migrating affected plans to their new homes.
//
// With no -file, the paper's loop L1 is used as a demonstration.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"commfree"
	"commfree/internal/intlin"
	"commfree/internal/selector"
)

const demoSrc = `# Loop L1 from Chen & Sheu (1993).
for i = 1 to 4
  for j = 1 to 4
    S1: A[2i, j]  = C[i, j] * 7
    S2: B[j, i+1] = A[2i-2, j-1] + C[i-1, j-1]
  end
end
`

func main() {
	var (
		file      = flag.String("file", "", "loop DSL source file (default: built-in demo L1)")
		strategy  = flag.String("strategy", "non-duplicate", "partitioning strategy: non-duplicate | duplicate | minimal-non-duplicate | minimal-duplicate | mars | auto (rank every allocation by simulated cost and compile the cheapest)")
		procs     = flag.Int("p", 4, "number of processors")
		execute   = flag.Bool("exec", false, "execute on the simulated multicomputer and validate against sequential execution")
		compare   = flag.Bool("compare-baseline", false, "also run the Ramanujam–Sadayappan hyperplane baseline")
		emit      = flag.String("emit", "", "write a standalone Go SPMD program implementing the compiled loop to this path ('-' for stdout)")
		trace     = flag.Bool("trace", false, "print the pipeline span tree (stage timings, per-block execution spans under -exec)")
		chaosSeed = flag.Int64("chaos-seed", 0, "with -exec: inject a deterministic fault schedule derived from this seed (block crashes, message loss, slow nodes) and prove recovery is bit-identical; 0 disables")
		remote    = flag.String("remote", "", "submit to a running commfreed (or cluster node) at this base URL instead of compiling in-process")

		clusterURL = flag.String("cluster", "", "cluster admin: base URL of any fleet member (use with -op and -peer)")
		clusterOp  = flag.String("op", "status", "cluster admin: status | join | leave")
		clusterPr  = flag.String("peer", "", "cluster admin: NAME=URL for -op join, NAME for -op leave")
	)
	flag.Parse()

	// The exact arithmetic refuses a coefficient it cannot represent by
	// panicking with its overflow value: the program's doing, so it exits
	// like every other rejected program. Any other panic is a bug and
	// keeps its stack.
	defer func() {
		p := recover()
		if err, ok := p.(error); ok && errors.Is(err, intlin.ErrOverflow) {
			fatal(fmt.Errorf("the program's coefficients are too large to analyse exactly: %w", err))
		}
		if p != nil {
			panic(p)
		}
	}()

	if *clusterURL != "" {
		if err := runClusterAdmin(*clusterURL, *clusterOp, *clusterPr); err != nil {
			fatal(err)
		}
		return
	}

	var trc *commfree.Trace
	if *trace {
		trc = commfree.NewTrace("commfree")
	}

	src := demoSrc
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}

	if *remote != "" {
		if err := runRemote(*remote, src, *strategy, *procs, *execute, *chaosSeed); err != nil {
			fatal(err)
		}
		return
	}

	pin, err := selector.PinFor(*strategy)
	if err != nil {
		fatal(err)
	}
	comp, err := commfree.CompileTraced(src, pin, *procs, trc)
	if err != nil {
		fatal(err)
	}
	if pin == "" {
		fmt.Print(commfree.StrategyRanking(comp.Ranking))
		fmt.Printf("\nselected: %s\n\n", comp.Chosen.Label)
	}
	fmt.Print(comp.Report())
	fmt.Println("\ncommunication-freeness: verified exhaustively on the iteration space")

	if *emit != "" {
		src, err := comp.GenerateGo()
		if err != nil {
			fatal(err)
		}
		if *emit == "-" {
			fmt.Println(src)
		} else if err := os.WriteFile(*emit, []byte(src), 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Printf("\nSPMD Go program written to %s (run with: go run %s)\n", *emit, *emit)
		}
	}

	if *compare {
		h, err := commfree.Hyperplane(comp.Nest)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nbaseline (Ramanujam–Sadayappan hyperplane): %s\n", h)
	}

	if *execute {
		var rep *commfree.ExecutionReport
		var err error
		if *chaosSeed != 0 {
			rep, err = comp.ExecuteChaos(commfree.TransputerCost(), trc, *chaosSeed)
		} else {
			rep, err = comp.ExecuteTraced(commfree.TransputerCost(), trc)
		}
		if err != nil {
			fatal(err)
		}
		want := commfree.SequentialReference(comp.Nest)
		mismatches := commfree.Mismatches(rep.Final, want)
		fmt.Printf("\n== simulated execution ==\n")
		fmt.Printf("processors busy: %d, inter-node messages: %d\n",
			len(rep.IterationsPerNode), rep.Machine.InterNodeMessages())
		fmt.Printf("distribution %.6fs + compute %.6fs = %.6fs simulated\n",
			rep.Machine.DistributionTime(), rep.Machine.ComputeTime(), rep.Machine.Elapsed())
		if *chaosSeed != 0 {
			fmt.Printf("chaos: seed %d injected %d faults (%d post-commit), %d block retries, %d message resends\n",
				*chaosSeed, rep.Chaos.Faults, rep.Chaos.PostCommit, rep.Chaos.Retries, rep.Chaos.MsgResends)
		}
		if mismatches == 0 {
			fmt.Printf("result: identical to sequential execution (%d elements)\n", len(want))
		} else {
			fatal(fmt.Errorf("result differs from sequential execution in %d elements", mismatches))
		}
		if tr := rep.Machine.CurrentTrace(); tr != nil {
			fmt.Printf("\n%s", tr.Gantt(60))
		}
	}

	if trc != nil {
		fmt.Printf("\n== pipeline trace ==\n%s", trc.Tree())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commfree:", err)
	os.Exit(1)
}

// runRemote submits the request to a commfreed service (any node of a
// cluster works — the fleet routes to the plan's home node) and prints
// the indented JSON response.
func runRemote(base, src, strategy string, procs int, execute bool, chaosSeed int64) error {
	path := "/v1/compile"
	body := map[string]any{"source": src, "strategy": strategy, "processors": procs}
	if execute {
		path = "/v1/execute"
		if chaosSeed != 0 {
			body["chaos_seed"] = chaosSeed
		}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	res, err := client.Post(base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", base+path, res.Status, bytes.TrimSpace(out))
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, out, "", "  ") == nil {
		out = pretty.Bytes()
	}
	if by := res.Header.Get("X-Commfree-Served-By"); by != "" {
		fmt.Printf("served by: %s\n", by)
	}
	fmt.Printf("%s\n", out)
	return nil
}
