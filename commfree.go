// Package commfree implements communication-free data allocation for
// parallelizing compilers on distributed-memory multicomputers, after
// Chen & Sheu, "Communication-Free Data Allocation Techniques for
// Parallelizing Compilers on Multicomputers" (ICPP 1993 / IEEE TPDS
// 5(9):924–938, 1994).
//
// Given a normalized nested loop with uniformly generated array
// references, the library:
//
//  1. analyzes the reference pattern of every array (package deps),
//  2. derives a communication-free partitioning space Ψ under one of four
//     strategies — non-duplicate data (Theorem 1), duplicate data
//     (Theorem 2), and their minimal variants after redundant-computation
//     elimination (Theorems 3–4) — in package partition,
//  3. transforms the loop into parallel forall form with exact
//     Fourier–Motzkin bounds (package transform),
//  4. maps blocks cyclically onto a fixed-size processor grid for load
//     balance (package assign), and
//  5. can execute the result on a simulated multicomputer with strictly
//     local memories, proving zero interprocessor communication
//     (packages machine and exec).
//
// The typical entry point is Compile:
//
//	comp, err := commfree.Compile(src, commfree.Duplicate, 16)
//	fmt.Println(comp.Partition.Summary())
//	fmt.Println(comp.Transformed)        // paper-style forall pseudocode
//	rep, err := comp.Execute(commfree.TransputerCost())
package commfree

import (
	"context"
	"fmt"
	"strings"

	"commfree/internal/assign"
	"commfree/internal/baseline"
	"commfree/internal/chaos"
	"commfree/internal/codegen"
	"commfree/internal/deps"
	"commfree/internal/distplan"
	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/layout"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/mars"
	"commfree/internal/normalize"
	"commfree/internal/obs"
	"commfree/internal/partition"
	"commfree/internal/redundant"
	"commfree/internal/selector"
	"commfree/internal/transform"
)

// Re-exported strategy constants (see partition.Strategy).
const (
	// NonDuplicate keeps exactly one copy of every array element
	// (Theorem 1).
	NonDuplicate = partition.NonDuplicate
	// Duplicate allows replicated array elements; only flow dependences
	// constrain the partition (Theorem 2).
	Duplicate = partition.Duplicate
	// MinimalNonDuplicate applies Theorem 3: non-duplicate partitioning
	// after redundant-computation elimination.
	MinimalNonDuplicate = partition.MinimalNonDuplicate
	// MinimalDuplicate applies Theorem 4.
	MinimalDuplicate = partition.MinimalDuplicate
	// Mars partitions by usage: iterations whose produced values share
	// consumers group into maximal atomic irredundant sets (Ferry et
	// al.), and blocks are the finest flow-closed groups — always at
	// least as parallel as Theorems 1–4, with zero redundant-copy
	// volume. Compute it with PartitionMars (partition.Compute rejects
	// it, like Selective).
	Mars = partition.Mars
)

// Core type aliases — the public names for the library's data model.
type (
	// Strategy selects one of the paper's four partitioning schemes.
	Strategy = partition.Strategy
	// Nest is a normalized n-nested loop with uniformly generated
	// references.
	Nest = loop.Nest
	// Level is one loop level with affine bounds.
	Level = loop.Level
	// Affine is an affine function of the loop indices.
	Affine = loop.Affine
	// Ref is an array reference A[H·ī + c̄].
	Ref = loop.Ref
	// Statement is one assignment in the loop body.
	Statement = loop.Statement
	// PartitionResult is the outcome of the partitioning pipeline.
	PartitionResult = partition.Result
	// Transformed is the forall-form parallel loop of Section IV.
	Transformed = transform.Transformed
	// Assignment is the cyclic mapping of blocks onto processors.
	Assignment = assign.Assignment
	// CostModel is the t_comp/t_start/t_comm machine model.
	CostModel = machine.CostModel
	// ExecutionReport is the result of simulated parallel execution.
	ExecutionReport = exec.Report
	// ChaosStats counts the faults a seeded chaos schedule injected and
	// the retries that absorbed them (ExecutionReport.Chaos).
	ChaosStats = chaos.Stats
	// DependenceAnalysis is the per-array dependence information.
	DependenceAnalysis = deps.Analysis
	// RedundancyResult is the outcome of Section III.C elimination.
	RedundancyResult = redundant.Result
	// HyperplaneResult is the Ramanujam–Sadayappan baseline outcome.
	HyperplaneResult = baseline.Result
)

// ParseProgram parses DSL source containing one or more consecutive loop
// nests. The paper's compilation model treats each nest independently;
// CompileProgram partitions each one.
func ParseProgram(src string) ([]*Nest, error) { return lang.ParseProgram(src) }

// CompileProgram compiles every nest of a multi-loop program under one
// strategy and processor count.
func CompileProgram(src string, strat Strategy, processors int) ([]*Compilation, error) {
	nests, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	out := make([]*Compilation, 0, len(nests))
	for i, n := range nests {
		c, err := CompileNest(n, strat, processors)
		if err != nil {
			return nil, fmt.Errorf("commfree: nest %d: %w", i+1, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// FormatLoop renders a nest back into DSL source (parsed nests round-trip
// exactly; hand-built nests get an equivalent rendering).
func FormatLoop(nest *Nest) string { return lang.Format(nest) }

// Parse parses loop DSL source such as
//
//	for i = 1 to 4
//	  for j = 1 to 4
//	    S1: A[2i, j]  = C[i, j] * 7
//	    S2: B[j, i+1] = A[2i-2, j-1] + C[i-1, j-1]
//	  end
//	end
//
// into a validated Nest.
func Parse(src string) (*Nest, error) { return lang.Parse(src) }

// MustParse is Parse that panics on error (for fixtures and examples).
func MustParse(src string) *Nest { return lang.MustParse(src) }

// AffineNest is a structurally valid nest whose references need not be
// uniformly generated and may carry symbolic constants (see ParseAffine).
type AffineNest = lang.AffineNest

// NormalizeResult is the outcome of the normalization pass: the uniform
// concrete nest plus the per-array data relabels applied to reach it.
type NormalizeResult = normalize.Result

// ClassifyError is the typed diagnostic for a nest the normalization
// pass provably cannot rewrite into uniformly generated form: the
// rejection class, the offending reference, and the failed condition.
type ClassifyError = normalize.ClassifyError

// ParseAffine parses DSL source in the widened affine grammar: array
// references need not be uniformly generated (A[2i+1], index
// permutations, per-reference offsets) and subscripts may use symbolic
// constants (A[i+d]). Feed the result to Normalize to obtain a nest the
// partitioning pipeline accepts.
func ParseAffine(src string) (*AffineNest, error) { return lang.ParseAffine(src) }

// Normalize rewrites an affine nest into uniformly generated form where
// a communication-free allocation still exists, or returns a
// *ClassifyError explaining precisely why it cannot. It is the identity
// on nests that already validate.
func Normalize(a *AffineNest) (*NormalizeResult, error) { return normalize.Apply(a) }

// NormalizeSource is ParseAffine followed by Normalize.
func NormalizeSource(src string) (*NormalizeResult, error) { return normalize.Source(src) }

// Analyze runs dependence analysis on a nest.
func Analyze(nest *Nest) (*DependenceAnalysis, error) { return deps.Analyze(nest) }

// Partition computes the communication-free partition of a nest under the
// given strategy (Theorems 1–4).
func Partition(nest *Nest, strat Strategy) (*PartitionResult, error) {
	return partition.Compute(nest, strat)
}

// PartitionSelective duplicates only the named arrays (Section IV's L5′
// duplicates B but not A).
func PartitionSelective(nest *Nest, duplicated map[string]bool) (*PartitionResult, error) {
	return partition.ComputeSelective(nest, duplicated)
}

// PartitionMars computes the usage-based MARS partition: maximal
// atomic irredundant sets over the irredundant dataflow, emitted as
// the fifth strategy through the common PartitionResult shape.
func PartitionMars(nest *Nest) (*PartitionResult, error) {
	return mars.Compute(nest)
}

// EliminateRedundant runs Section III.C redundant-computation elimination.
func EliminateRedundant(nest *Nest) (*RedundancyResult, error) {
	a, err := deps.Analyze(nest)
	if err != nil {
		return nil, err
	}
	return redundant.Eliminate(a)
}

// TransformLoop rewrites a partitioned nest into forall form.
func TransformLoop(res *PartitionResult) (*Transformed, error) {
	return transform.Transform(res.Analysis.Nest, res.Psi)
}

// Hyperplane runs the Ramanujam–Sadayappan baseline partitioner.
func Hyperplane(nest *Nest) (*HyperplaneResult, error) { return baseline.Hyperplane(nest) }

// TransputerCost returns the Transputer-calibrated cost model used for
// the Table I/II reproduction.
func TransputerCost() CostModel { return machine.Transputer() }

// StrategyCandidate is one evaluated allocation alternative.
type StrategyCandidate = selector.Candidate

// SelectStrategy prices every allocation alternative — the four theorems
// plus all selective duplication subsets — on p processors under the cost
// model and returns the cheapest with the full ranking (the paper's
// closing "estimate which duplication is suitable" remark, automated).
func SelectStrategy(nest *Nest, p int, cost CostModel) (StrategyCandidate, []StrategyCandidate, error) {
	return selector.Best(nest, p, cost)
}

// CompileAuto compiles the cheapest allocation SelectStrategy would pick
// for the nest under the cost model, in one evaluation: the nest is
// analyzed once, every distinct partition among the candidates is priced
// once, and the winner's partition, transformation and assignment are
// the ones that were priced. The ranking's first entry is the compiled
// candidate.
func CompileAuto(nest *Nest, p int, cost CostModel) (*Compilation, []StrategyCandidate, error) {
	c, err := compile(nest, "", p, cost, nil)
	if err != nil {
		return nil, nil, err
	}
	return c, c.Ranking, nil
}

// StrategyRanking renders a SelectStrategy ranking.
func StrategyRanking(all []StrategyCandidate) string { return selector.Report(all) }

// Compilation bundles the full pipeline output for one nest: the
// compiled candidate with its predicted cost, every candidate the
// selection priced (cheapest first), and the compiled candidate's
// partition, forall transformation and processor assignment.
type Compilation struct {
	Nest        *Nest
	Strategy    Strategy
	Processors  int
	Chosen      StrategyCandidate
	Ranking     []StrategyCandidate
	Partition   *PartitionResult
	Transformed *Transformed
	Assignment  *Assignment
}

// Trace is a structured span tree recording one pipeline run: every
// stage (parse, then selection with deps, redundant and one class span
// per distinct partition, each holding partition, transform and assign;
// then verify; exec_run with per-block children) becomes a timed span.
// Start one with NewTrace, pass it to CompileTraced /
// Compilation.ExecuteTraced, and render it with Trace.Tree() or export
// it with Trace.Export(). A nil *Trace is always legal and free.
type Trace = obs.Trace

// NewTrace starts a named trace.
func NewTrace(name string) *Trace { return obs.New(name) }

// Compile parses, partitions, transforms, assigns and verifies in one
// call, under one strategy.
func Compile(src string, strat Strategy, processors int) (*Compilation, error) {
	return CompileTraced(src, strat.String(), processors, nil)
}

// CompileTraced runs the compile pipeline on src with its stage spans
// recorded into trc, compiling the candidate labelled pin: a strategy
// (its String: "duplicate", "minimal non-duplicate", …), a selective
// subset ("selective{B}"), or "" for the cheapest under the Transputer
// cost model. Sources are parsed in the affine grammar and normalized
// first, so non-uniform references that the pass can rewrite compile
// transparently; uniform sources flow through byte-identically (the pass
// is the identity on them), and unnormalizable nests fail with a
// *ClassifyError. The pipeline then admits the nest (at most
// 1<<22 iterations), prices every candidate and verifies the one it
// compiles, exactly as the compilation service does.
func CompileTraced(src, pin string, processors int, trc *Trace) (*Compilation, error) {
	psp := trc.Start(0, "parse")
	nres, err := normalize.Source(src)
	if err == nil && !nres.Identity {
		psp.SetInt("normalized", 1)
	}
	psp.End()
	if err != nil {
		return nil, err
	}
	return compile(nres.Nest, pin, processors, TransputerCost(), trc)
}

// CompileNest is Compile for an already-built nest.
func CompileNest(nest *Nest, strat Strategy, processors int) (*Compilation, error) {
	return compile(nest, strat.String(), processors, TransputerCost(), nil)
}

// CompileCandidate compiles the allocation a SelectStrategy candidate
// describes (including selective duplication subsets).
func CompileCandidate(nest *Nest, cand StrategyCandidate, processors int) (*Compilation, error) {
	return compile(nest, cand.Label, processors, TransputerCost(), nil)
}

// compile is every Compile* function's view of selector.Compile.
func compile(nest *Nest, pin string, processors int, cost CostModel, trc *Trace) (*Compilation, error) {
	ev, err := selector.Compile(context.Background(), nest, processors, cost, pin, loop.DefaultMaxIterations, trc)
	if err != nil {
		return nil, err
	}
	return &Compilation{
		Nest:        nest,
		Strategy:    ev.Result.Strategy,
		Processors:  processors,
		Chosen:      ev.Chosen,
		Ranking:     ev.Ranking,
		Partition:   ev.Result,
		Transformed: ev.Transformed,
		Assignment:  ev.Assignment,
	}, nil
}

// Verify exhaustively checks the compilation's communication-freeness on
// the finite iteration space.
func (c *Compilation) Verify() error { return c.Partition.Verify() }

// Execute runs the compilation on the simulated multicomputer and checks
// nothing crossed between nodes.
func (c *Compilation) Execute(cost CostModel) (*ExecutionReport, error) {
	return c.ExecuteTraced(cost, nil)
}

// ExecuteTraced is Execute with an "exec_run" span whose children are
// the distribution charge and one span per executed block (worker,
// node, block id, iterations, words moved).
func (c *Compilation) ExecuteTraced(cost CostModel, trc *Trace) (*ExecutionReport, error) {
	return c.executeOpts(cost, trc, nil)
}

// ExecuteChaos is ExecuteTraced under a deterministic fault-injection
// schedule derived from seed (see internal/chaos): blocks crash and are
// retried from checkpoints, distribution messages are lost and resent,
// nodes run slow — and the result must still be bit-identical to the
// fault-free run, because blocks have disjoint footprints (or private
// copies) and are therefore independently re-executable. The injected
// faults and retries are reported in ExecutionReport.Chaos.
func (c *Compilation) ExecuteChaos(cost CostModel, trc *Trace, seed int64) (*ExecutionReport, error) {
	return c.executeOpts(cost, trc, chaos.Default(seed))
}

func (c *Compilation) executeOpts(cost CostModel, trc *Trace, inj *chaos.Injector) (*ExecutionReport, error) {
	rsp := trc.Start(0, "exec_run")
	rep, err := exec.ParallelOpts(c.Partition, c.Processors, cost,
		exec.Options{Trace: trc, Parent: rsp.ID(), Chaos: inj})
	rsp.End()
	if err != nil {
		return nil, err
	}
	if n := rep.Machine.InterNodeMessages(); n != 0 {
		return rep, fmt.Errorf("commfree: %d inter-node messages during execution", n)
	}
	return rep, nil
}

// SequentialReference executes the nest sequentially with the shared
// deterministic initial values (for comparing against Execute).
func SequentialReference(nest *Nest) map[string]float64 {
	return exec.Sequential(nest, nil)
}

// Mismatches counts the elements on which a parallel final state
// disagrees with the reference: missing from got, differing in value, or
// surplus in got. Zero is the validation verdict "identical".
func Mismatches(got, want map[string]float64) int { return exec.Mismatches(got, want) }

// GenerateGo emits a standalone, runnable Go program implementing the
// compiled loop in the paper's SPMD form: cyclically strided forall
// loops, extended statements, and the original body — the compiler's
// code-generation back end. The program's main() prints the sequential
// result state and per-processor iteration counts for external diffing.
func (c *Compilation) GenerateGo() (string, error) {
	opts := codegen.Options{}
	if c.Strategy == partition.Mars {
		// MARS blocks are flow closures, not grid cosets: emit the
		// table-driven SPMD form instead of strided loops.
		opts.PEIterations = codegen.PETable(c.Partition, c.Transformed, c.Assignment)
	}
	return codegen.Generate(c.Transformed, c.Assignment, opts)
}

// DistributionPlan is the host's derived distribution schedule: element
// groups with identical consumer sets mapped to unicast, multicast, or
// broadcast (Section IV's manual primitive choice, automated).
type DistributionPlan = distplan.Plan

// ExecutePlanned is Execute with plan-based initial-data distribution:
// shared element groups are multicast/broadcast instead of sent per node.
func (c *Compilation) ExecutePlanned(cost CostModel) (*ExecutionReport, *DistributionPlan, error) {
	rep, plan, err := distplan.ParallelPlanned(c.Partition, c.Processors, cost)
	if err != nil {
		return nil, nil, err
	}
	if n := rep.Machine.InterNodeMessages(); n != 0 {
		return rep, plan, fmt.Errorf("commfree: %d inter-node messages during execution", n)
	}
	return rep, plan, nil
}

// MemoryLayout is the per-processor local layout of one array.
type MemoryLayout = layout.Layout

// Layouts computes the local memory layout of every array's data blocks:
// dense local addresses plus footprint statistics (replication factor,
// savings versus whole-array replication, bounding-box packing).
func (c *Compilation) Layouts() []*MemoryLayout {
	return layout.BuildAll(c.Partition)
}

// Report renders a full human-readable compilation report.
func (c *Compilation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== source ==\n%s\n", c.Nest)
	fmt.Fprintf(&b, "== dependence analysis ==\n%s\n", c.Partition.Analysis.Summary())
	fmt.Fprintf(&b, "== partition ==\n%s\n", c.Partition.Summary())
	if c.Partition.Redundant != nil {
		fmt.Fprintf(&b, "== redundant computations ==\n%s\n", c.Partition.Redundant.Summary())
	}
	fmt.Fprintf(&b, "== transformed loop ==\n%s\n", c.Transformed)
	fmt.Fprintf(&b, "== local memory layout ==\n")
	for _, l := range c.Layouts() {
		fmt.Fprintf(&b, "  %s\n", l.Summary())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "== processor assignment (%d processors) ==\n%s", c.Processors, c.Assignment.Summary())
	return b.String()
}
