package assign

// Scheduling policies. The paper argues for the cyclic ("mod")
// distribution because neighboring blocks of a skewed partition have
// nearly equal sizes, so interleaving them balances load; a blocked
// (contiguous-range) distribution assigns whole regions of the forall
// space and concentrates the large central blocks of diagonal partitions
// on few processors. AssignWithPolicy exposes both so the claim is
// measurable (see BenchmarkSchedulingPolicies and the policy tests).

import (
	"fmt"
)

// Policy selects how forall points map to grid coordinates.
type Policy int

const (
	// Cyclic is the paper's mod distribution (default).
	Cyclic Policy = iota
	// Blocked assigns contiguous key ranges per dimension.
	Blocked
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Cyclic:
		return "cyclic"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PolicyAssignment wraps an Assignment with a scheduling policy.
type PolicyAssignment struct {
	*Assignment
	Policy Policy
	// per-dimension key ranges of the nonempty forall points (Blocked).
	min, max []int64
}

// AssignWithPolicy builds an assignment under the given policy.
func AssignWithPolicy(a *Assignment, policy Policy) *PolicyAssignment {
	pa := &PolicyAssignment{Assignment: a, Policy: policy}
	if policy == Blocked && a.Tr.K > 0 {
		pa.min = make([]int64, a.Tr.K)
		pa.max = make([]int64, a.Tr.K)
		first := true
		for _, f := range a.Tr.ForallPoints() {
			for i := 0; i < a.Tr.K; i++ {
				if first || f[i] < pa.min[i] {
					pa.min[i] = f[i]
				}
				if first || f[i] > pa.max[i] {
					pa.max[i] = f[i]
				}
			}
			first = false
		}
	}
	return pa
}

// OwnerCoords maps a forall point to processor grid coordinates under the
// policy.
func (pa *PolicyAssignment) OwnerCoords(forall []int64) []int {
	if pa.Policy == Cyclic {
		return pa.Assignment.OwnerCoords(forall)
	}
	coords := make([]int, len(pa.Dims))
	for i := range pa.Dims {
		extent := pa.max[i] - pa.min[i] + 1
		if extent <= 0 {
			coords[i] = 0
			continue
		}
		c := int((forall[i] - pa.min[i]) * int64(pa.Dims[i]) / extent)
		if c >= pa.Dims[i] {
			c = pa.Dims[i] - 1
		}
		if c < 0 {
			c = 0
		}
		coords[i] = c
	}
	return coords
}

// OwnerID linearizes OwnerCoords.
func (pa *PolicyAssignment) OwnerID(forall []int64) int {
	id := 0
	for i, c := range pa.OwnerCoords(forall) {
		id = id*pa.Dims[i] + c
	}
	return id
}

// Workloads returns per-processor iteration counts under the policy.
func (pa *PolicyAssignment) Workloads() []int64 { return pa.workloads(pa.OwnerID) }

// Imbalance returns (max − min) / mean over the policy's workloads.
func (pa *PolicyAssignment) Imbalance() float64 { return imbalance(pa.Workloads()) }
