package partition

// JSON-stable views of partitioning results, for serving plans over the
// wire: plain slices, maps, and strings with fixed field names — no
// rationals, no closures, no back-pointers into the analysis.

import (
	"encoding/json"
	"fmt"
)

// MarshalJSON renders a strategy by its paper name ("duplicate", …).
func (s Strategy) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses a strategy from its paper name.
func (s *Strategy) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for _, cand := range []Strategy{
		NonDuplicate, Duplicate, MinimalNonDuplicate, MinimalDuplicate, Selective, Mars,
	} {
		if cand.String() == name {
			*s = cand
			return nil
		}
	}
	return fmt.Errorf("partition: unknown strategy %q", name)
}

// ArrayInfo is the wire form of one array's data partition.
type ArrayInfo struct {
	// Basis is the integer basis of the array's reference space Ψ_A.
	Basis [][]int64 `json:"basis"`
	// Duplicated reports whether any element is replicated across blocks.
	Duplicated bool `json:"duplicated"`
	// CopyFactor is total block elements / unique elements (1.0 = none).
	CopyFactor float64 `json:"copy_factor"`
	// Blocks is the number of data blocks.
	Blocks int `json:"blocks"`
}

// Info is the wire form of a partitioning result.
type Info struct {
	// Strategy is the paper-facing strategy name.
	Strategy string `json:"strategy"`
	// PsiBasis is the integer basis of the partitioning space Ψ, one
	// row per basis vector (empty for the zero space).
	PsiBasis [][]int64 `json:"psi_basis"`
	// PsiDim is dim Ψ; ParallelismDim = n − dim Ψ is the dimension of
	// the communication-free forall space.
	PsiDim         int `json:"psi_dim"`
	ParallelismDim int `json:"parallelism_dim"`
	// NumBlocks and MaxBlockSize describe the iteration partition.
	NumBlocks    int `json:"num_blocks"`
	MaxBlockSize int `json:"max_block_size"`
	// EliminatedIterations counts redundant computations removed by the
	// minimal strategies (0 otherwise).
	EliminatedIterations int `json:"eliminated_iterations,omitempty"`
	// Arrays maps array name → its data-partition info.
	Arrays map[string]ArrayInfo `json:"arrays"`
}

// Info builds the JSON-stable view of the result.
func (r *Result) Info() Info {
	info := Info{
		Strategy:       r.Strategy.String(),
		PsiBasis:       basisInts(r.Psi.IntegerBasis()),
		PsiDim:         r.Psi.Dim(),
		ParallelismDim: r.ParallelismDim(),
		NumBlocks:      r.Iter.NumBlocks(),
		MaxBlockSize:   r.Iter.MaxBlockSize(),
		Arrays:         map[string]ArrayInfo{},
	}
	if r.Redundant != nil {
		info.EliminatedIterations = r.Redundant.NumRedundant()
	}
	copies, uniq, _ := footprints(r.Iter, r.Redundant, -1)
	for a, name := range r.Iter.Index.Arrays {
		ai := ArrayInfo{
			Basis:      [][]int64{},
			Duplicated: copies[a] > uniq[a],
			CopyFactor: copyFactor(copies[a], uniq[a]),
			Blocks:     r.Iter.NumBlocks(),
		}
		if sp := r.PerArray[name]; sp != nil { // nil on a revived result
			ai.Basis = basisInts(sp.IntegerBasis())
		}
		info.Arrays[name] = ai
	}
	return info
}

// basisInts normalizes a nil basis to an empty slice so the JSON is
// always an array, never null.
func basisInts(rows [][]int64) [][]int64 {
	if rows == nil {
		return [][]int64{}
	}
	return rows
}
