// Strategy-comparison subsystem: every nest class in the corpus is run
// through all five partitioning strategies plus the hyperplane baseline,
// and the results — parallelism dimension, communication volume of the
// distribution plan, redundant-copy volume, and simulated runtime — are
// emitted both as a machine-readable JSON artifact (for CI gating and
// downstream analysis) and as a rendered markdown table.
package report

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"commfree/internal/baseline"
	"commfree/internal/distplan"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// CompareSchemaVersion identifies the JSON artifact layout; CI gates on
// it so schema drift is an explicit, versioned event rather than a
// silently broken consumer.
const CompareSchemaVersion = 1

// StrategyMetrics is one strategy's measured outcome on one nest.
type StrategyMetrics struct {
	// Strategy is the wire name ("non-duplicate" … "mars").
	Strategy string `json:"strategy"`
	// Variant qualifies parameterized strategies (the chosen Selective
	// duplication subset); empty otherwise.
	Variant string `json:"variant,omitempty"`
	// ParallelismDim is n − dim(Ψ): the forall dimensionality.
	ParallelismDim int `json:"parallelism_dim"`
	// Blocks / MaxBlockSize describe the iteration partition.
	Blocks       int `json:"blocks"`
	MaxBlockSize int `json:"max_block_size"`
	// CommWords is the wire volume of the initial distribution plan;
	// DeliveredWords counts installed copies (≥ CommWords under
	// multicast fan-out). Steady-state communication is zero for every
	// strategy — that is the theorem — so distribution is the whole
	// communication story.
	CommWords      int `json:"comm_words"`
	DeliveredWords int `json:"delivered_words"`
	// RedundantCopyVolume counts distributed copies of elements no
	// non-redundant computation of the owning block touches.
	RedundantCopyVolume int `json:"redundant_copy_volume"`
	// SimTotalS is the simulated end-to-end time (distribution +
	// compute) under the Transputer cost model.
	SimTotalS float64 `json:"sim_total_s"`
}

// BaselineMetrics is the hyperplane baseline's outcome on one nest.
type BaselineMetrics struct {
	Applicable bool `json:"applicable"`
	Found      bool `json:"found"`
	Blocks     int  `json:"blocks"`
}

// NestComparison is the full five-strategy comparison for one nest.
type NestComparison struct {
	// Name identifies the nest ("corpus-03", "L5(8)", …).
	Name string `json:"name"`
	// Class groups nests by shape: depth, arrays, statements.
	Class      string            `json:"class"`
	Source     string            `json:"source"`
	Iterations int64             `json:"iterations"`
	Strategies []StrategyMetrics `json:"strategies"`
	Baseline   BaselineMetrics   `json:"baseline"`
}

// Comparison is the artifact root.
type Comparison struct {
	SchemaVersion int              `json:"schema_version"`
	Processors    int              `json:"processors"`
	CostModel     string           `json:"cost_model"`
	Nests         []NestComparison `json:"nests"`
}

// JSON renders the artifact with stable formatting.
func (c *Comparison) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// compareStrategies are the five strategies in wire order.
var compareStrategies = []partition.Strategy{
	partition.NonDuplicate,
	partition.Duplicate,
	partition.MinimalNonDuplicate,
	partition.MinimalDuplicate,
	partition.Selective,
	partition.Mars,
}

// Compare runs the full strategy comparison over every parseable corpus
// nest plus the paper's L5, on p processors under cost.
func Compare(p int, cost machine.CostModel) (*Comparison, error) {
	cmp := &Comparison{SchemaVersion: CompareSchemaVersion, Processors: p, CostModel: "transputer"}
	seen := map[string]bool{}
	add := func(name string, nest *loop.Nest, src string) error {
		canon := lang.Format(nest)
		if seen[canon] {
			return nil
		}
		seen[canon] = true
		nc, err := compareNest(name, nest, src, p, cost)
		if err != nil {
			return fmt.Errorf("compare %s: %w", name, err)
		}
		cmp.Nests = append(cmp.Nests, *nc)
		return nil
	}
	i := 0
	for _, src := range lang.Corpus() {
		nest, err := lang.Parse(src)
		if err != nil {
			continue // deliberate parser-rejection seeds
		}
		i++
		if err := add(fmt.Sprintf("corpus-%02d", i), nest, src); err != nil {
			return nil, err
		}
	}
	l5 := loop.L5(8)
	if err := add("L5(8)", l5, lang.Format(l5)); err != nil {
		return nil, err
	}
	return cmp, nil
}

func compareNest(name string, nest *loop.Nest, src string, p int, cost machine.CostModel) (*NestComparison, error) {
	nc := &NestComparison{
		Name:       name,
		Class:      fmt.Sprintf("%dD/%da/%ds", len(nest.Levels), len(nest.Arrays()), len(nest.Body)),
		Source:     strings.TrimSpace(src),
		Iterations: nest.NumIterations(),
	}

	// One evaluation context per nest: every strategy partitions the same
	// analysis and index, and redundant-copy volumes are measured against
	// the same irredundancy oracle.
	pc, err := partition.NewContext(nest, nil, 0)
	if err != nil {
		return nil, err
	}

	for _, strat := range compareStrategies {
		var res *partition.Result
		variant := ""
		if strat == partition.Selective {
			res, variant, err = bestSelective(pc)
		} else {
			res, err = pc.Compute(strat, nil, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", strat, err)
		}
		m, err := measure(pc, res, p, cost)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", strat, err)
		}
		m.Strategy = strat.String()
		m.Variant = variant
		nc.Strategies = append(nc.Strategies, *m)
	}

	base, err := baseline.Hyperplane(nest)
	if err != nil {
		return nil, fmt.Errorf("hyperplane: %w", err)
	}
	nc.Baseline = BaselineMetrics{Applicable: base.Applicable, Found: base.Found, Blocks: base.NumBlocks}
	return nc, nil
}

// bestSelective builds the partition of the Selective comparison row.
// It picks the duplication subset by exhaustive enumeration (minimizing
// redundant-copy volume, then block count) when the array count permits,
// so the comparison never penalizes Selective with an unlucky subset;
// past four arrays it duplicates everything.
func bestSelective(pc *partition.Context) (*partition.Result, string, error) {
	arrays := pc.Index.Arrays
	first := 0
	if len(arrays) > 4 {
		first = 1<<len(arrays) - 1 // duplicate everything
	}
	var best *partition.Result
	var bestDup map[string]bool
	bestVol, bestBlocks := -1, -1
	for mask := first; mask < 1<<len(arrays); mask++ {
		dup := map[string]bool{}
		for i, a := range arrays {
			if mask&(1<<i) != 0 {
				dup[a] = true
			}
		}
		res, err := pc.Compute(partition.Selective, dup, 0)
		if err != nil {
			return nil, "", err
		}
		vol := res.RedundantCopyVolume(pc.Redundant())
		blocks := res.Iter.NumBlocks()
		// Prefer lower copy volume; break ties toward more parallelism.
		if best == nil || vol < bestVol || (vol == bestVol && blocks > bestBlocks) {
			best, bestDup, bestVol, bestBlocks = res, dup, vol, blocks
		}
	}
	return best, variantName(bestDup), nil
}

func variantName(dup map[string]bool) string {
	var names []string
	for a, on := range dup {
		if on {
			names = append(names, a)
		}
	}
	sort.Strings(names)
	return "dup={" + strings.Join(names, ",") + "}"
}

func measure(pc *partition.Context, res *partition.Result, p int, cost machine.CostModel) (*StrategyMetrics, error) {
	rep, plan, err := distplan.ParallelPlanned(res, p, cost)
	if err != nil {
		return nil, err
	}
	st := plan.Stats()
	return &StrategyMetrics{
		ParallelismDim:      res.ParallelismDim(),
		Blocks:              res.Iter.NumBlocks(),
		MaxBlockSize:        res.Iter.MaxBlockSize(),
		CommWords:           st.Words,
		DeliveredWords:      st.DeliveredWords,
		RedundantCopyVolume: res.RedundantCopyVolume(pc.Redundant()),
		SimTotalS:           rep.Machine.Elapsed(),
	}, nil
}

// compareSection renders the comparison as a markdown table.
func compareSection(b *strings.Builder, cost machine.CostModel) error {
	cmp, err := Compare(4, cost)
	if err != nil {
		return err
	}
	b.WriteString("## Strategy comparison (all corpus nests + L5, p=4)\n\n")
	b.WriteString("| nest | class | strategy | dim | blocks | comm words | delivered | redundant copies | sim total (s) |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, nc := range cmp.Nests {
		for i, m := range nc.Strategies {
			name, class := "", ""
			if i == 0 {
				name, class = nc.Name, nc.Class
			}
			label := m.Strategy
			if m.Variant != "" {
				label += " " + m.Variant
			}
			fmt.Fprintf(b, "| %s | %s | %s | %d | %d | %d | %d | %d | %.4f |\n",
				name, class, label, m.ParallelismDim, m.Blocks,
				m.CommWords, m.DeliveredWords, m.RedundantCopyVolume, m.SimTotalS)
		}
		base := "n/a (not a For-all loop)"
		if nc.Baseline.Applicable {
			if nc.Baseline.Found {
				base = fmt.Sprintf("%d blocks", nc.Baseline.Blocks)
			} else {
				base = "no comm-free hyperplane"
			}
		}
		fmt.Fprintf(b, "| | | hyperplane baseline | | %s | | | | |\n", base)
	}
	b.WriteString("\n(comm words = wire volume of the one-time initial distribution; steady-state communication is zero for every strategy by construction)\n\n")
	return nil
}
