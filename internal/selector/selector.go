// Package selector chooses a data-allocation strategy by simulated cost.
// The paper closes its evaluation with: "determining which kind of
// duplication of array is suitable for replicating their referenced data
// can be appropriately estimated such that parallelized programs can gain
// better performance during parallel execution." This package performs
// that estimation: it enumerates the candidate strategies — non-duplicate
// (Theorem 1), full duplicate (Theorem 2), the minimal variants after
// redundant-computation elimination (Theorems 3–4), and every selective
// subset of duplicable arrays (the L5′-style middle grounds) — prices
// each one as distribution time (from the derived plan) plus the
// parallel compute phase, and returns the cheapest.
package selector

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"commfree/internal/assign"
	"commfree/internal/distplan"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/obs"
	"commfree/internal/partition"
	"commfree/internal/space"
	"commfree/internal/transform"
)

// Candidate is one evaluated allocation. The struct is JSON-stable:
// compilation services serve it verbatim as the predicted-cost part of
// a plan (times are simulated seconds on the configured cost model).
type Candidate struct {
	// Label describes the candidate ("duplicate", "selective{B}", …).
	Label string `json:"label"`
	// Strategy is the partitioning strategy used.
	Strategy partition.Strategy `json:"strategy"`
	// Duplicated lists the arrays allowed to replicate under Selective.
	Duplicated []string `json:"duplicated,omitempty"`
	// Blocks is the communication-free parallelism.
	Blocks int `json:"blocks"`
	// DistributionTime, ComputeTime, and Total are the simulated costs.
	DistributionTime float64 `json:"distribution_time_s"`
	ComputeTime      float64 `json:"compute_time_s"`
	Total            float64 `json:"total_s"`
}

// String renders the candidate.
func (c Candidate) String() string {
	return fmt.Sprintf("%-22s %4d blocks  dist %.6fs + comp %.6fs = %.6fs",
		c.Label, c.Blocks, c.DistributionTime, c.ComputeTime, c.Total)
}

// Best evaluates all candidates for the nest on p processors and returns
// the cheapest plus the full ranking (ascending total time). It runs the
// selection stage only: no admission and no verification.
func Best(nest *loop.Nest, p int, cost machine.CostModel) (Candidate, []Candidate, error) {
	ev, err := Evaluate(context.Background(), nest, p, cost, "", nil)
	if err != nil {
		return Candidate{}, nil, err
	}
	return ev.Ranking[0], ev.Ranking, nil
}

// PinFor maps a requested strategy name to the candidate label Compile
// pins: "auto" pins none, so the cheapest candidate is compiled, and a
// strategy's wire name pins that strategy's own candidate. "selective"
// names plan records, not requests: its subsets are reached through
// "auto".
func PinFor(name string) (string, error) {
	if name == "auto" {
		return "", nil
	}
	if s, ok := partition.Named(name); ok && s != partition.Selective {
		return s.String(), nil
	}
	return "", fmt.Errorf("unknown strategy %q", name)
}

// Compile is the compile pipeline, the one the library, the command
// line and the service all run. Its stages are
//
//  1. admission: a nest past maxIterations (loop.Nest.Admit) is refused
//     before anything enumerates it;
//  2. selection: Evaluate prices every candidate on p processors and
//     keeps the one labelled pin, or the cheapest when pin is "";
//  3. verify: that candidate's partition is checked communication-free
//     on the whole iteration space.
//
// Selection and verify are recorded as top-level spans of trc. The
// returned evaluation's Result, Transformed and Assignment are the
// compiled candidate's.
func Compile(ctx context.Context, nest *loop.Nest, p int, cost machine.CostModel, pin string, maxIterations int64, trc *obs.Trace) (*Evaluation, error) {
	if p < 1 {
		return nil, fmt.Errorf("selector: processors = %d", p)
	}
	if err := nest.Admit(maxIterations); err != nil {
		return nil, err
	}
	ev, err := Evaluate(ctx, nest, p, cost, pin, trc)
	if err != nil {
		return nil, err
	}
	if ev.Result == nil {
		return nil, fmt.Errorf("selector: %q is not among the evaluated candidates", pin)
	}
	sp := trc.Start(0, "verify")
	err = ev.Result.Verify()
	sp.End()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// Evaluation is the outcome of pricing every candidate of one nest.
type Evaluation struct {
	// Ranking lists the candidates by ascending total time, ties in
	// enumeration order; Ranking[0] is the selector's choice.
	Ranking []Candidate
	// Classes counts the distinct partitions materialized and priced:
	// candidates whose Ψ and redundancy pruning coincide are views of
	// one class.
	Classes int
	// SelectiveSkipped reports that the nest has more than four arrays,
	// so its selective duplication subsets were not enumerated.
	SelectiveSkipped bool
	// Chosen is the pinned candidate (Ranking[0] when none was pinned);
	// Result, Transformed and Assignment are its compiled form, exactly
	// as its class was priced. Result is nil when the pin names no
	// candidate.
	Chosen      Candidate
	Result      *partition.Result
	Transformed *transform.Transformed
	Assignment  *assign.Assignment
}

// spec is one candidate: a thin view (label, strategy, duplicated set,
// per-array spaces) over its class.
type spec struct {
	Candidate
	perArray map[string]*space.Space
	class    int
}

// class is one distinct partition of the nest: a Ψ and whether the
// redundancy oracle prunes its data partition, or — psi == nil — the
// MARS flow closure.
type class struct {
	psi    *space.Space
	pruned bool
}

// Evaluate prices every candidate of the nest on p processors: the four
// theorems, MARS, and every selective subset of at most four arrays. The
// nest is analysed once, and each class of candidates is partitioned,
// planned and priced once, classes concurrently (see price); ctx is
// checked before each class starts. pin is the label of the candidate
// the caller will compile ("" for the cheapest): only that candidate's
// partition outlives its pricing. Everything is recorded under one
// top-level "selection" span of trc, annotated with the candidate and
// class counts and the winner. The outcome does not depend on
// GOMAXPROCS.
func Evaluate(ctx context.Context, nest *loop.Nest, p int, cost machine.CostModel, pin string, trc *obs.Trace) (*Evaluation, error) {
	ssp := trc.Start(0, "selection")
	defer ssp.End()
	pc, err := partition.NewContext(nest, trc, ssp.ID())
	if err != nil {
		return nil, err
	}
	var specs []spec
	var classes []class
	add := func(label string, strat partition.Strategy, names []string) error {
		sp := spec{Candidate: Candidate{Label: label, Strategy: strat, Duplicated: names}, class: len(classes)}
		var c class
		if strat != partition.Mars {
			dup := map[string]bool{}
			for _, a := range names {
				dup[a] = true
			}
			var err error
			if sp.perArray, c.psi, err = pc.Spaces(strat, dup); err != nil {
				return err
			}
			c.pruned = strat.Minimal() && pc.Redundant().NumRedundant() > 0
			for i, known := range classes {
				if known.psi != nil && known.pruned == c.pruned && known.psi.Equal(c.psi) {
					sp.class = i
				}
			}
		}
		if sp.class == len(classes) {
			classes = append(classes, c)
		}
		specs = append(specs, sp)
		return nil
	}
	// MARS keeps its strategy name as label so strategy-pinned callers
	// can find it in the ranking.
	for _, s := range []partition.Strategy{
		partition.NonDuplicate, partition.Duplicate,
		partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Mars,
	} {
		if err := add(s.String(), s, nil); err != nil {
			return nil, err
		}
	}
	// Selective subsets over the arrays that can profit from duplication.
	arrays := nest.Arrays()
	ev := &Evaluation{SelectiveSkipped: len(arrays) > 4}
	for mask := 1; !ev.SelectiveSkipped && mask < (1<<len(arrays))-1; mask++ {
		var names []string
		for i, a := range arrays {
			if mask&(1<<i) != 0 {
				names = append(names, a)
			}
		}
		if err := add("selective{"+strings.Join(names, ",")+"}", partition.Selective, names); err != nil {
			return nil, err
		}
	}

	ev.Classes = len(classes)
	// A class is materialized as the view of its pinned member, else of
	// its earliest one — the member the stable ranking puts first.
	views, members := make([]spec, len(classes)), make([]int, len(classes))
	for _, sp := range specs {
		if members[sp.class]++; members[sp.class] == 1 || sp.Label == pin {
			views[sp.class] = sp
		}
	}
	// MARS and the minimal classes share the redundancy oracle: derive it
	// before the workers read the context.
	pc.Redundant()
	prices, err := price(ctx, pc, classes, views, members, p, cost, pin, ev)
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		c := prices[sp.class]
		sp.Blocks, sp.DistributionTime, sp.ComputeTime, sp.Total = c.Blocks, c.DistributionTime, c.ComputeTime, c.Total
		ev.Ranking = append(ev.Ranking, sp.Candidate)
	}
	sort.SliceStable(ev.Ranking, func(i, j int) bool { return ev.Ranking[i].Total < ev.Ranking[j].Total })
	ssp.SetInt("candidates", int64(len(ev.Ranking)))
	ssp.SetInt("classes", int64(ev.Classes))
	ssp.SetStr("winner", ev.Ranking[0].Label)
	if ev.SelectiveSkipped {
		ssp.SetInt("selective_skipped", 1)
	}
	return ev, nil
}

// price materializes and prices every class as its view, min(classes,
// GOMAXPROCS) at a time, and records the chosen class's compiled form on
// ev. The dispatcher polls ctx and starts each class's span in class
// order; a worker writes only its class's slot of the returned prices.
// The winner so far is held under a mutex and ordered by (Total, class
// index) — the sequential "first strictly cheaper" rule — and every other
// class's partition is dropped once priced, so at most width + 1
// partitions are alive. In-flight
// classes are awaited before price returns: when ctx ends after k polls,
// exactly k classes were priced. A failure stops the dispatch; the
// earliest failing class's error is returned, or its panic re-raised
// with the panicking stack kept on that class's span.
func price(ctx context.Context, pc *partition.Context, classes []class, views []spec, members []int, p int, cost machine.CostModel, pin string, ev *Evaluation) ([]Candidate, error) {
	prices := make([]Candidate, len(classes))
	errs, panics := make([]error, len(classes)), make([]any, len(classes))
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex // guards best and ev's chosen fields
		best   = -1
		failed atomic.Bool
		ctxErr error
	)
	slots := make(chan struct{}, min(len(classes), runtime.GOMAXPROCS(0)))
	for ci, c := range classes {
		slots <- struct{}{}
		if failed.Load() {
			break
		}
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		csp := pc.Trace.Start(pc.Parent, "class")
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			defer csp.End()
			defer func() {
				if v := recover(); v != nil {
					// The caller re-raises v from its own goroutine, so
					// the failing frame survives only here.
					csp.SetStr("panic", fmt.Sprint(v))
					csp.SetStr("stack", string(debug.Stack()))
					panics[ci] = v
					failed.Store(true)
				}
			}()
			res, tr, asg, err := materialize(pc, c, &views[ci], p, csp.ID())
			if err != nil {
				errs[ci] = err
				failed.Store(true)
				return
			}
			priced := estimate(res, asg, cost)
			prices[ci] = priced
			csp.SetInt("psi_dim", int64(res.Psi.Dim()))
			csp.SetInt("blocks", int64(priced.Blocks))
			csp.SetInt("members", int64(members[ci]))
			mu.Lock()
			defer mu.Unlock()
			cheaper := best < 0 || priced.Total < ev.Chosen.Total || priced.Total == ev.Chosen.Total && ci < best
			if views[ci].Label == pin || pin == "" && cheaper {
				best = ci
				ev.Chosen = views[ci].Candidate
				ev.Chosen.Blocks, ev.Chosen.DistributionTime, ev.Chosen.ComputeTime, ev.Chosen.Total = priced.Blocks, priced.DistributionTime, priced.ComputeTime, priced.Total
				ev.Result, ev.Transformed, ev.Assignment = res, tr, asg
			}
		}()
	}
	wg.Wait()
	for ci := range classes {
		if panics[ci] != nil {
			panic(panics[ci])
		}
		if errs[ci] != nil {
			return nil, errs[ci]
		}
	}
	return prices, ctxErr
}

// materialize partitions a class once, in the shape of one member's
// view, and derives its forall transformation and processor assignment;
// the stages are recorded as spans under parent.
func materialize(pc *partition.Context, c class, view *spec, p int, parent obs.SpanID) (*partition.Result, *transform.Transformed, *assign.Assignment, error) {
	var res *partition.Result
	var err error
	if c.psi == nil {
		res, err = pc.Compute(partition.Mars, nil, parent)
	} else {
		res, err = pc.Partition(view.Strategy, view.perArray, c.psi, parent)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	sp := pc.Trace.Start(parent, "transform")
	tr, err := transform.Transform(pc.Analysis.Nest, res.Psi)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = pc.Trace.Start(parent, "assign")
	defer sp.End()
	return res, tr, assign.Assign(tr, p), nil
}

// estimate prices one partitioning under its assignment: the
// distribution plan's simulated time plus max-workload·t_comp for the
// compute phase. Workloads count iterations per processor at block
// granularity: a block runs wholly on the node owning its base point.
// For coset strategies this matches the per-forall count; MARS blocks
// span forall points and must not be split.
func estimate(res *partition.Result, asg *assign.Assignment, cost machine.CostModel) Candidate {
	plan := distplan.BuildFor(res, asg.Placement)
	mach := machine.New(machine.MeshFor(plan.Nodes), cost)
	plan.Charge(mach)
	loads := make([]int64, plan.Nodes)
	var max int64
	for bi, b := range res.Iter.Blocks {
		n := plan.BlockNode[bi]
		if loads[n] += int64(b.Size()); loads[n] > max {
			max = loads[n]
		}
	}
	dist := mach.DistributionTime()
	comp := float64(max) * cost.TComp
	return Candidate{
		Strategy:         res.Strategy,
		Blocks:           res.Iter.NumBlocks(),
		DistributionTime: dist,
		ComputeTime:      comp,
		Total:            dist + comp,
	}
}

// Report renders the full ranking.
func Report(all []Candidate) string {
	var b strings.Builder
	b.WriteString("strategy ranking (cheapest first):\n")
	for i, c := range all {
		fmt.Fprintf(&b, "%2d. %s\n", i+1, c)
	}
	return b.String()
}
