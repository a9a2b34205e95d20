// commload is the open-loop load harness for the commfree serving
// stack. It drives either an in-process MapTransport fleet (-local N,
// no sockets — the benchmarking mode) or any running daemons
// (-targets), firing a seed-pure Zipfian workload through warmup →
// steady → overload → recovery phases and reporting per-phase
// p50/p99/p999 latency, goodput, hedge win rate and shed rate.
//
//	# 3-node in-process fleet, SLO admission, default phase profile
//	commload -local 3 -seed 42
//
//	# the same seed against the queue-depth-only baseline
//	commload -local 3 -seed 42 -admission queue
//
//	# running daemons
//	commload -targets http://localhost:8377 -seed 42
//
// The JSON report goes to stdout (or -out); the human summary to
// stderr. Two runs with one seed replay the identical request
// sequence — the report's digest proves it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"commfree/internal/cluster"
	"commfree/internal/loadgen"
	"commfree/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "commload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed    = flag.Int64("seed", 1, "schedule seed (same seed ⇒ identical request sequence)")
		local   = flag.Int("local", 0, "run an in-process N-node fleet instead of external targets")
		targets = flag.String("targets", "", "comma-separated base URLs of running daemons (ignored with -local)")
		out     = flag.String("out", "", "write the JSON report here instead of stdout")

		rate      = flag.Float64("rate", 100, "steady-phase arrival rate, requests/second")
		overloadX = flag.Float64("overload-x", 3, "overload-phase rate as a multiple of -rate")
		warmupD   = flag.Duration("warmup", 2*time.Second, "warmup phase duration (at half -rate)")
		steadyD   = flag.Duration("steady", 4*time.Second, "steady phase duration")
		overloadD = flag.Duration("overload", 4*time.Second, "overload phase duration")
		recoverD  = flag.Duration("recovery", 4*time.Second, "recovery phase duration (back at -rate)")

		zipfS      = flag.Float64("zipf", 1.1, "Zipf exponent of plan popularity")
		execFrac   = flag.Float64("exec-frac", 0.9, "fraction of /v1/execute requests (rest /v1/compile)")
		procs      = flag.String("procs", "4,8,16", "comma-separated machine sizes drawn per request")
		chaosFrac  = flag.Float64("chaos-frac", 0, "fraction of execute requests carrying seeded fault injection")
		chaosSeed  = flag.Int64("chaos-seed", 0, "chaos seed base (default: -seed)")
		sloT       = flag.Duration("slo", 150*time.Millisecond, "latency objective: goodput counts OKs within it")
		nodeSLO    = flag.Duration("node-slo", 0, "fleet: per-node admission target (default -slo/2: half the end-to-end budget, leaving room for one failover hop)")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request client budget")

		// -local fleet shape.
		admission  = flag.String("admission", "slo", "fleet admission mode: slo or queue")
		workers    = flag.Int("workers", 2, "fleet: worker-pool size per node")
		queueDepth = flag.Int("queue-depth", 512, "fleet: request queue depth per node")
		replicas   = flag.Int("replicas", 2, "fleet: replicas per plan")
		hedgeAfter = flag.Duration("hedge-after", 50*time.Millisecond, "fleet: hedge budget (0 disables)")
	)
	flag.Parse()

	var procList []int
	for _, p := range strings.Split(*procs, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil || v <= 0 {
			return fmt.Errorf("bad -procs entry %q", p)
		}
		procList = append(procList, v)
	}

	cfg := loadgen.Config{
		Seed: *seed,
		Phases: []loadgen.Phase{
			{Name: "warmup", Duration: *warmupD, Rate: *rate / 2},
			{Name: "steady", Duration: *steadyD, Rate: *rate},
			{Name: "overload", Duration: *overloadD, Rate: *rate * *overloadX},
			{Name: "recovery", Duration: *recoverD, Rate: *rate},
		},
		ZipfS:          *zipfS,
		ExecuteFrac:    *execFrac,
		Processors:     procList,
		ChaosFrac:      *chaosFrac,
		ChaosSeed:      *chaosSeed,
		SLOTarget:      *sloT,
		RequestTimeout: *reqTimeout,
	}

	client := http.DefaultClient
	var urls []string
	switch {
	case *local > 0:
		// A shed request fails over to a replica and queues there again,
		// so a node holding the full end-to-end budget lets two-hop
		// journeys reach 2× the objective. Half the budget per node
		// keeps the worst admitted journey (shed once, served second
		// try) inside the client-facing SLO.
		perNode := *nodeSLO
		if perNode <= 0 {
			perNode = *sloT / 2
		}
		fleet, err := cluster.NewLocal(*local, service.Config{
			Workers:    *workers,
			QueueDepth: *queueDepth,
			Admission:  *admission,
			SLOTarget:  perNode,
		}, cluster.WithReplicas(*replicas), cluster.WithHedgeAfter(*hedgeAfter))
		if err != nil {
			return err
		}
		defer fleet.Close()
		client = fleet.Client()
		for i := range fleet.Names {
			urls = append(urls, fleet.URL(i))
		}
	case *targets != "":
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(strings.TrimSuffix(t, "/")); t != "" {
				urls = append(urls, t)
			}
		}
	default:
		return fmt.Errorf("need -local N or -targets URL[,URL...]")
	}

	fmt.Fprintf(os.Stderr, "commload: seed=%d admission=%s targets=%d offered=%s\n",
		*seed, *admission, len(urls), describePhases(cfg.Phases))
	rep, err := loadgen.Run(context.Background(), cfg, client, urls, *admission)
	if err != nil {
		return err
	}
	rep.Summarize(os.Stderr)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return rep.WriteJSON(w)
}

func describePhases(phases []loadgen.Phase) string {
	var parts []string
	for _, p := range phases {
		parts = append(parts, fmt.Sprintf("%s %.0f/s×%s", p.Name, p.Rate, p.Duration))
	}
	return strings.Join(parts, " → ")
}
