package assign

// JSON-stable view of a processor assignment, for serving plans over
// the wire.

// BlockOwner maps one forall point to the processor of its block.
type BlockOwner struct {
	Forall    []int64 `json:"forall"`
	Processor int     `json:"processor"`
}

// Info is the wire form of an assignment.
type Info struct {
	// Processors is the requested machine size; GridDims the factored
	// p₁×…×p_k grid the cyclic mapping uses.
	Processors int   `json:"processors"`
	GridDims   []int `json:"grid_dims"`
	// Workloads is iterations per processor; Imbalance is
	// (max − min)/mean over all of them, idle processors included.
	Workloads []int64 `json:"workloads"`
	Imbalance float64 `json:"imbalance"`
	// Blocks lists every forall point with the processor of the block
	// holding it, in the transformed loop's enumeration order.
	Blocks []BlockOwner `json:"blocks"`
}

// Info builds the JSON-stable view.
func (a *Assignment) Info() Info {
	node, loads := a.placed()
	points, it := a.Tr.ForallPoints(), a.Tr.Partition()
	info := Info{
		Processors: a.P,
		GridDims:   a.Dims,
		Workloads:  loads,
		Imbalance:  imbalance(loads),
		Blocks:     make([]BlockOwner, len(points)),
	}
	if info.GridDims == nil {
		info.GridDims = []int{}
	}
	for i, f := range points {
		b := i // a walked loop has one coset block per forall point
		if it != nil {
			b = it.ForallBlock(i)
		}
		info.Blocks[i] = BlockOwner{Forall: f, Processor: node[b]}
	}
	return info
}
