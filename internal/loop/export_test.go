package loop

// WalkedFootprint is Footprint by the walk alone: the reference the
// closed form is checked against.
func (l *Nest) WalkedFootprint() (*Footprint, error) { return l.walkFootprint(l.newFootprint()) }

// NewIndexBy is NewIndex with every array's element ids looked up in a
// rank-indexed table (table) or in a map (!table), whatever the ratio of
// its box to its accesses.
func NewIndexBy(nest *Nest, table bool) (*Index, error) {
	return newIndex(nest, func(int64, int64) bool { return table })
}
