package main

// expected.json and the output verifier. The file has two parts that
// are kept apart on purpose:
//
//   - closed_form: hand-written rows, one per family × strategy, giving
//     dim Ψ and the block count as a polynomial in the extent. They are
//     the paper's closed forms (Section IV for L5/L4, Examples 1 and 3
//     for the two 2-D shapes) and are never regenerated.
//   - pins: regression pins written by -regen-expected. The per-run
//     pins (elements, per-node iterations, simulated time) come from
//     the map oracle exec.Parallel, not from the kernel the service
//     runs; the "auto" pins record what the selector resolved to and
//     are the only rows that come from the compiler itself.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/mars"
	"commfree/internal/partition"
	"commfree/internal/selector"
	"commfree/internal/service"
)

//go:embed expected.json
var expectedJSON []byte

type closedFormRow struct {
	Family   string `json:"family"`
	Strategy string `json:"strategy"`
	PsiDim   int    `json:"psi_dim"`
	// BlocksPoly are the coefficients c0, c1, c2… of the block count
	// c0 + c1·e + c2·e² + … at extent e.
	BlocksPoly []int  `json:"blocks_poly"`
	Label      string `json:"label"`
	Why        string `json:"why"`
}

// planPin is what a compile response must report for an "auto" cell.
type planPin struct {
	Label  string `json:"label"`
	PsiDim int    `json:"psi_dim"`
	Blocks int    `json:"blocks"`
}

// runPin is what an execute response must report for a cell.
type runPin struct {
	Elements          int     `json:"elements"`
	SimElapsedS       float64 `json:"sim_elapsed_s"`
	IterationsPerNode []int64 `json:"iterations_per_node"`
}

type expectedFile struct {
	Note       string `json:"note"`
	ClosedForm struct {
		Note string          `json:"note"`
		Rows []closedFormRow `json:"rows"`
	} `json:"closed_form"`
	Pins struct {
		Note string             `json:"note"`
		Auto map[string]planPin `json:"auto"`
		Runs map[string]runPin  `json:"runs"`
	} `json:"pins"`
}

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// plan returns the compile-side expectation of the cell: the closed
// form evaluated at its extent, or the pin for an "auto" cell.
func (e *expectedFile) plan(p planSpec) (planPin, error) {
	if p.Strategy == "auto" {
		pin, ok := e.Pins.Auto[p.ID()]
		if !ok {
			return planPin{}, fmt.Errorf("expected.json has no auto pin for %s", p.ID())
		}
		return pin, nil
	}
	for _, r := range e.ClosedForm.Rows {
		if r.Family == p.Family && r.Strategy == p.Strategy {
			blocks, pow := 0, 1
			for _, c := range r.BlocksPoly {
				blocks += c * pow
				pow *= p.Extent
			}
			return planPin{Label: r.Label, PsiDim: r.PsiDim, Blocks: blocks}, nil
		}
	}
	return planPin{}, fmt.Errorf("expected.json has no closed form for %s × %s", p.Family, p.Strategy)
}

func (e *expectedFile) run(p planSpec) (runPin, error) {
	pin, ok := e.Pins.Runs[p.ID()]
	if !ok {
		return runPin{}, fmt.Errorf("expected.json has no run pin for %s", p.ID())
	}
	return pin, nil
}

// covers reports the first generated cell the file cannot judge.
func (e *expectedFile) covers(plans []planSpec) error {
	for _, p := range plans {
		if _, err := e.plan(p); err != nil {
			return err
		}
		if _, err := e.run(p); err != nil {
			return err
		}
	}
	return nil
}

// compileView and executeView are the parts of a response the verifier
// reads; decoding only these keeps the generator's own work small.
type compileView struct {
	Plan *struct {
		Strategy  string `json:"strategy"`
		Partition struct {
			PsiDim    int `json:"psi_dim"`
			NumBlocks int `json:"num_blocks"`
		} `json:"partition"`
	} `json:"plan"`
}

func (v compileView) pin() (planPin, error) {
	if v.Plan == nil {
		return planPin{}, fmt.Errorf("response carries no plan")
	}
	return planPin{Label: v.Plan.Strategy, PsiDim: v.Plan.Partition.PsiDim, Blocks: v.Plan.Partition.NumBlocks}, nil
}

type executeView struct {
	Engine            string  `json:"engine"`
	Validated         bool    `json:"validated"`
	Mismatches        int     `json:"mismatches"`
	InterNodeMessages int64   `json:"inter_node_messages"`
	Elements          int     `json:"elements"`
	SimElapsedS       float64 `json:"sim_elapsed_s"`
	IterationsPerNode []int64 `json:"iterations_per_node"`
}

func checkCompile(have, want planPin) error {
	if have != want {
		return fmt.Errorf("plan is %+v, expected %+v", have, want)
	}
	return nil
}

// pinOf is what a compile response says about its plan.
func pinOf(resp *service.CompileResponse) planPin {
	return planPin{Label: resp.Plan.Strategy, PsiDim: resp.Plan.Partition.PsiDim, Blocks: resp.Plan.Partition.NumBlocks}
}

func checkExecute(got executeView, want runPin) error {
	switch {
	case !got.Validated || got.Mismatches != 0:
		return fmt.Errorf("not validated (%d mismatches)", got.Mismatches)
	case got.InterNodeMessages != 0:
		return fmt.Errorf("%d inter-node messages in a communication-free plan", got.InterNodeMessages)
	case got.Engine != "kernel":
		return fmt.Errorf("ran on engine %q, expected kernel", got.Engine)
	case got.Elements != want.Elements:
		return fmt.Errorf("%d elements, expected %d", got.Elements, want.Elements)
	case got.SimElapsedS != want.SimElapsedS:
		return fmt.Errorf("sim_elapsed_s %v, expected %v", got.SimElapsedS, want.SimElapsedS)
	case !reflect.DeepEqual(got.IterationsPerNode, want.IterationsPerNode):
		return fmt.Errorf("iterations_per_node %v, expected %v", got.IterationsPerNode, want.IterationsPerNode)
	}
	return nil
}

// explicitStrategies maps the wire names a request may carry, "auto"
// aside, to the partitioner's strategies.
var explicitStrategies = map[string]partition.Strategy{
	"non-duplicate": partition.NonDuplicate, "duplicate": partition.Duplicate,
	"minimal-non-duplicate": partition.MinimalNonDuplicate, "minimal-duplicate": partition.MinimalDuplicate,
	"mars": partition.Mars,
}

// resolved is a cell's strategy as the service resolves it: the
// requested one, or the selector's winner for "auto".
type resolved struct {
	strat partition.Strategy
	label string
	dup   []string // the arrays a selective winner duplicates
}

func resolve(p planSpec, best selector.Candidate) resolved {
	if p.Strategy == "auto" {
		return resolved{best.Strategy, best.Label, best.Duplicated}
	}
	strat := explicitStrategies[p.Strategy]
	return resolved{strat: strat, label: strat.String()}
}

// partition partitions the nest under the resolved strategy, through
// the entry point the service uses for it.
func (r resolved) partition(nest *loop.Nest) (*partition.Result, error) {
	switch r.strat {
	case partition.Mars:
		return mars.Compute(nest)
	case partition.Selective:
		dup := map[string]bool{}
		for _, a := range r.dup {
			dup[a] = true
		}
		return partition.ComputeSelective(nest, dup)
	}
	return partition.Compute(nest, r.strat)
}

// partitionFor resolves and partitions a cell in one step.
func partitionFor(p planSpec) (*partition.Result, string, error) {
	nest, err := lang.Parse(p.Source)
	if err != nil {
		return nil, "", err
	}
	best, _, err := selector.Best(nest, p.Procs, machine.Transputer())
	if err != nil {
		return nil, "", err
	}
	r := resolve(p, best)
	res, err := r.partition(nest)
	return res, r.label, err
}

// regenExpected rewrites the pins of expected.json for every cell of
// every workload and leaves the hand-written closed forms alone. It
// refuses to write anything unless, on every cell, the map oracle, the
// sequential reference and the kernel agree, and every closed form
// matches what the partitioner produced.
func regenExpected(path string) error {
	e, err := loadExpected()
	if err != nil {
		return err
	}
	e.Pins.Auto = map[string]planPin{}
	e.Pins.Runs = map[string]runPin{}
	cost := machine.Transputer()
	for _, name := range workloadNames {
		w, err := generate(name, 1)
		if err != nil {
			return err
		}
		for _, p := range w.Plans {
			if _, done := e.Pins.Runs[p.ID()]; done {
				continue
			}
			res, label, err := partitionFor(p)
			if err != nil {
				return fmt.Errorf("%s: %w", p.ID(), err)
			}
			have := planPin{Label: label, PsiDim: res.Psi.Dim(), Blocks: res.Iter.NumBlocks()}
			if p.Strategy == "auto" {
				e.Pins.Auto[p.ID()] = have
			} else if want, err := e.plan(p); err != nil {
				return err
			} else if want != have {
				return fmt.Errorf("%s: closed form says %+v, the partitioner produced %+v", p.ID(), want, have)
			}
			oracle, err := exec.Parallel(res, p.Procs, cost)
			if err != nil {
				return fmt.Errorf("%s: oracle: %w", p.ID(), err)
			}
			seq := exec.Sequential(res.Analysis.Nest, nil)
			if err := exec.Equal(oracle.Final, seq); err != nil {
				return fmt.Errorf("%s: oracle differs from sequential execution: %w", p.ID(), err)
			}
			kern, err := exec.ParallelKernel(res, p.Procs, cost, exec.Options{})
			if err != nil {
				return fmt.Errorf("%s: kernel: %w", p.ID(), err)
			}
			if err := exec.Equal(kern.Final, oracle.Final); err != nil {
				return fmt.Errorf("%s: kernel differs from the oracle: %w", p.ID(), err)
			}
			if kern.Machine.Elapsed() != oracle.Machine.Elapsed() || !reflect.DeepEqual(kern.IterationsPerNode, oracle.IterationsPerNode) {
				return fmt.Errorf("%s: kernel and oracle disagree on accounting", p.ID())
			}
			e.Pins.Runs[p.ID()] = runPin{
				Elements:          len(seq),
				SimElapsedS:       oracle.Machine.Elapsed(),
				IterationsPerNode: oracle.IterationsPerNode,
			}
		}
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("regenerated %d run pins and %d auto pins into %s\n", len(e.Pins.Runs), len(e.Pins.Auto), path)
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
