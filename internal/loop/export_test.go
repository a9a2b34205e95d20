package loop

// WalkedFootprint is Footprint by the walk alone: the reference the
// closed form is checked against.
func (l *Nest) WalkedFootprint() (*Footprint, error) { return l.walkFootprint(l.newFootprint()) }
