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
	"sort"
	"strings"

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
// the cheapest plus the full ranking (ascending total time).
func Best(nest *loop.Nest, p int, cost machine.CostModel) (Candidate, []Candidate, error) {
	pc, err := partition.NewContext(nest, nil, 0)
	if err != nil {
		return Candidate{}, nil, err
	}
	ev, err := Evaluate(context.Background(), pc, p, cost, "")
	if err != nil {
		return Candidate{}, nil, err
	}
	return ev.Ranking[0], ev.Ranking, nil
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

// Evaluate prices every candidate of the context's nest on p processors:
// the four theorems, MARS, and every selective subset of at most four
// arrays. Each class of candidates is partitioned, planned and priced
// once; ctx is checked between classes. pin is the label of the
// candidate the caller will compile ("" for the cheapest): only that
// candidate's partition outlives its pricing, so at most two partitions
// are alive at a time.
func Evaluate(ctx context.Context, pc *partition.Context, p int, cost machine.CostModel, pin string) (*Evaluation, error) {
	nest := pc.Analysis.Nest
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
	for ci, c := range classes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The class is materialized as the view of its pinned member, else
		// of its earliest one — the member the stable ranking puts first.
		keep, members := -1, 0
		for i, sp := range specs {
			if sp.class == ci {
				members++
				if keep < 0 || sp.Label == pin {
					keep = i
				}
			}
		}
		csp := pc.Trace.Start(pc.Parent, "class")
		res, tr, asg, err := materialize(pc, c, &specs[keep], p, csp.ID())
		if err != nil {
			csp.End()
			return nil, err
		}
		priced := estimate(res, asg, cost)
		for i := range specs {
			if sp := &specs[i]; sp.class == ci {
				sp.Blocks, sp.DistributionTime, sp.ComputeTime, sp.Total = priced.Blocks, priced.DistributionTime, priced.ComputeTime, priced.Total
			}
		}
		csp.SetInt("psi_dim", int64(res.Psi.Dim()))
		csp.SetInt("blocks", int64(priced.Blocks))
		csp.SetInt("members", int64(members))
		csp.End()
		if specs[keep].Label == pin || (pin == "" && (ev.Result == nil || priced.Total < ev.Chosen.Total)) {
			ev.Chosen, ev.Result, ev.Transformed, ev.Assignment = specs[keep].Candidate, res, tr, asg
		}
	}
	for _, sp := range specs {
		ev.Ranking = append(ev.Ranking, sp.Candidate)
	}
	sort.SliceStable(ev.Ranking, func(i, j int) bool { return ev.Ranking[i].Total < ev.Ranking[j].Total })
	return ev, nil
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
