package machine

// This file is the paper's cost model for its evaluation (Section IV,
// Tables I and II): matrix multiplication L5 timed sequentially, as L5′
// (array B broadcast to every processor, A distributed by rows), and as
// L5″ (both A and B partially replicated by row/column multicast on a
// √p×√p mesh). No data values move: the distribution pattern and the
// exact per-node iteration counts are charged, which is what reaches
// M = 256. Executing L5′ and L5″ is the compiler's job — compile
// loop.L5(m) with B duplicated, or under the duplicate strategy, and run
// the derived distribution plan; the root package's identity test ties
// these closed forms to what that plan charges.

import "fmt"

// SequentialTime returns the paper's T₁ compute-only sequential time
// (Table I counts no allocation time for p = 1).
func SequentialTime(m int64, c CostModel) float64 {
	return float64(m) * float64(m) * float64(m) * c.TComp
}

// L5PrimeMachine charges the paper's T₂ distribution for L5′ on p
// processors: row slices of A by pipelined unicast (p messages), the
// whole of B by broadcast. C rides along uncharged, as in the paper.
func L5PrimeMachine(m int64, p int, c CostModel) (*Machine, error) {
	topo, err := SquareMesh(p)
	if err != nil {
		return nil, err
	}
	if m%int64(p) != 0 {
		return nil, fmt.Errorf("machine: M=%d not a multiple of p=%d", m, p)
	}
	mach := New(topo, c)
	// A rows α ≡ a+1 (mod p) to PE_a.
	for a := 0; a < p; a++ {
		mach.ChargeSendWords(a, int((m/int64(p))*m))
	}
	mach.ChargeBroadcast(int(m*m), int(m*m)*p)
	return mach, nil
}

// L5PrimeTime returns the simulated total time of L5′ (distribution plus
// the exact compute phase M³/p·t_comp).
func L5PrimeTime(m int64, p int, c CostModel) (float64, error) {
	mach, err := L5PrimeMachine(m, p, c)
	if err != nil {
		return 0, err
	}
	mach.ChargeComputeIterations([]int64{(m / int64(p)) * m * m})
	return mach.Elapsed(), nil
}

// L5DoublePrimeMachine charges the paper's T₃ distribution for L5″ on a
// √p×√p mesh: A row groups multicast along the √p mesh rows, B column
// groups along the √p mesh columns. C tiles are uncharged.
func L5DoublePrimeMachine(m int64, p int, c CostModel) (*Machine, error) {
	topo, err := SquareMesh(p)
	if err != nil {
		return nil, err
	}
	sq := topo.P1
	if m%int64(sq) != 0 {
		return nil, fmt.Errorf("machine: M=%d not a multiple of √p=%d", m, sq)
	}
	mach := New(topo, c)
	// Rows i ≡ a₁+1 (mod √p) of A to mesh row a₁, then columns
	// j ≡ a₂+1 (mod √p) of B to mesh column a₂: 2√p equal streams.
	n := int((m / int64(sq)) * m)
	for g := 0; g < 2*sq; g++ {
		mach.ChargeMulticast(sq, n, n*sq)
	}
	return mach, nil
}

// L5DoublePrimeTime returns the simulated total time of L5″.
func L5DoublePrimeTime(m int64, p int, c CostModel) (float64, error) {
	mach, err := L5DoublePrimeMachine(m, p, c)
	if err != nil {
		return 0, err
	}
	mach.ChargeComputeIterations([]int64{(m * m * m) / int64(p)})
	return mach.Elapsed(), nil
}

// TableRow is one (M, p) measurement for Tables I and II.
type TableRow struct {
	M           int64
	P           int
	Sequential  float64 // p = 1 reference
	Prime       float64 // L5′ total time
	DoublePrime float64 // L5″ total time
}

// SpeedupPrime returns Sequential / Prime.
func (r TableRow) SpeedupPrime() float64 { return r.Sequential / r.Prime }

// SpeedupDoublePrime returns Sequential / DoublePrime.
func (r TableRow) SpeedupDoublePrime() float64 { return r.Sequential / r.DoublePrime }

// TableI simulates the full Table I grid: sizes Ms on processor counts Ps.
func TableI(ms []int64, ps []int, c CostModel) ([]TableRow, error) {
	var rows []TableRow
	for _, p := range ps {
		for _, m := range ms {
			row := TableRow{M: m, P: p, Sequential: SequentialTime(m, c)}
			var err error
			row.Prime, err = L5PrimeTime(m, p, c)
			if err != nil {
				return nil, err
			}
			row.DoublePrime, err = L5DoublePrimeTime(m, p, c)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
