package commfree

import (
	"fmt"
	"math"
	"testing"

	"commfree/internal/machine"
)

// l5Schemes are Section IV's two parallel forms of L5 as the facade runs
// them, each with the paper's closed-form distribution (machine.L5*Machine),
// the step shape the derived plan must have, and the C words the paper's
// T₂/T₃ leave uncharged but a plan that really delivers C pays for.
var l5Schemes = []struct {
	name   string
	run    func(int64, int, CostModel) (*ExecutionReport, *DistributionPlan, error)
	closed func(int64, int, CostModel) (*machine.Machine, error)
	// shape is the derived plan's (unicasts, multicasts, broadcasts).
	shape func(p int) [3]int
	// cTerm is derived − closed form: C's M² words ride in the p unicasts
	// that L5′ already sends for A; under L5″ they are p unicasts of their
	// own.
	cTerm func(m int64, p int, c CostModel) float64
}{
	{
		name: "L5′", run: RunL5Prime, closed: machine.L5PrimeMachine,
		shape: func(p int) [3]int { return [3]int{p, 0, 1} },
		cTerm: func(m int64, p int, c CostModel) float64 { return float64(m*m) * c.TComm },
	},
	{
		name: "L5″", run: RunL5DoublePrime, closed: machine.L5DoublePrimeMachine,
		shape: func(p int) [3]int {
			sq := machine.MeshFor(p).P1
			return [3]int{p, 2 * sq, 0}
		},
		cTerm: func(m int64, p int, c CostModel) float64 { return float64(p)*c.TStart + float64(m*m)*c.TComm },
	},
}

// TestTableIClosedFormsAreTheDerivedPlansCharge ties Table I's cost model
// to the compiler: wherever both run, compiling L5 (B duplicated, or the
// duplicate strategy) and deriving its distribution plan yields exactly
// Section IV's primitives, the plan's charged distribution time is the
// closed form plus the stated C term, and executing it is communication-
// free and bit-identical to sequential matrix multiplication.
func TestTableIClosedFormsAreTheDerivedPlansCharge(t *testing.T) {
	cost := TransputerCost()
	for _, m := range []int64{16, 32, 64} {
		if m == 64 && testing.Short() {
			continue
		}
		want := SequentialMatMul(m)
		for _, p := range []int{4, 16} {
			for _, s := range l5Schemes {
				t.Run(fmt.Sprintf("%s/M=%d/p=%d", s.name, m, p), func(t *testing.T) {
					rep, plan, err := s.run(m, p, cost)
					if err != nil {
						t.Fatal(err)
					}
					st := plan.Stats()
					if got := [3]int{st.Unicasts, st.Multicasts, st.Broadcasts}; got != s.shape(p) {
						t.Errorf("plan steps (unicast, multicast, broadcast) = %v, want %v\n%s", got, s.shape(p), plan)
					}
					closed, err := s.closed(m, p, cost)
					if err != nil {
						t.Fatal(err)
					}
					derived := rep.Machine.DistributionTime()
					model := closed.DistributionTime() + s.cTerm(m, p, cost)
					t.Logf("distribution: closed form %.7f s + C term %.7f s; derived plan %.7f s (total %.4f s, Table I cell %.4f s)",
						closed.DistributionTime(), s.cTerm(m, p, cost), derived, rep.Machine.Elapsed(), closed.DistributionTime()+rep.Machine.ComputeTime())
					if math.Abs(derived-model) > 1e-12*derived {
						t.Errorf("derived distribution %.12g s, closed form + C term %.12g s", derived, model)
					}
					if n := rep.Machine.InterNodeMessages(); n != 0 {
						t.Errorf("%d inter-node messages", n)
					}
					if n := Mismatches(rep.Final, want); n != 0 {
						t.Errorf("%d elements differ from sequential execution", n)
					}
				})
			}
		}
	}
}

func TestRunL5PrimeMatchesSequential(t *testing.T) {
	for _, m := range []int64{4, 8, 16} {
		rep, _, err := RunL5Prime(m, 4, TransputerCost())
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if n := rep.Machine.InterNodeMessages(); n != 0 {
			t.Errorf("M=%d: inter-node messages = %d (communication-free violated)", m, n)
		}
		if n := Mismatches(rep.Final, SequentialMatMul(m)); n != 0 || len(rep.Final) != int(m*m) {
			t.Errorf("M=%d: %d mismatches over %d elements", m, n, len(rep.Final))
		}
	}
}

func TestRunL5DoublePrimeMatchesSequential(t *testing.T) {
	for _, cfg := range []struct {
		m int64
		p int
	}{{4, 4}, {8, 4}, {8, 16}, {16, 16}} {
		rep, _, err := RunL5DoublePrime(cfg.m, cfg.p, TransputerCost())
		if err != nil {
			t.Fatalf("M=%d p=%d: %v", cfg.m, cfg.p, err)
		}
		if n := rep.Machine.InterNodeMessages(); n != 0 {
			t.Errorf("M=%d p=%d: inter-node messages = %d", cfg.m, cfg.p, n)
		}
		if n := Mismatches(rep.Final, SequentialMatMul(cfg.m)); n != 0 || len(rep.Final) != int(cfg.m*cfg.m) {
			t.Errorf("M=%d p=%d: %d mismatches over %d elements", cfg.m, cfg.p, n, len(rep.Final))
		}
	}
}
