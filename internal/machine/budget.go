package machine

// Execution budgets: a long-running service cannot let one request
// monopolize the simulator, so parallel execution runs under a Budget
// that caps the total number of simulated loop iterations and observes
// context cancellation. A nil *Budget means "unlimited" everywhere.

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrBudgetExhausted is returned when an execution spends more
// iterations than its budget allows.
var ErrBudgetExhausted = errors.New("machine: execution budget exhausted")

// Budget caps the simulated work of one request. It is safe for
// concurrent use by all node goroutines of a machine.
type Budget struct {
	ctx       context.Context
	done      <-chan struct{} // ctx.Done(): polled without taking the context's lock
	remaining atomic.Int64
	limited   bool
}

// NewBudget builds a budget of at most maxIterations simulated
// iterations (0 or negative means unlimited) that also aborts when ctx
// is done. A nil ctx disables cancellation checks.
func NewBudget(ctx context.Context, maxIterations int64) *Budget {
	b := &Budget{ctx: ctx, limited: maxIterations > 0}
	if ctx != nil {
		b.done = ctx.Done()
	}
	if b.limited {
		b.remaining.Store(maxIterations)
	}
	return b
}

// Spend consumes n iterations from the budget. It returns
// ErrBudgetExhausted once the cap is crossed, the context's error once
// it is done, and nil otherwise. Spend(0) only polls the context, so a
// caller that spent its work up front can poll from many goroutines
// without contending on the count. A nil receiver always allows.
func (b *Budget) Spend(n int64) error {
	if b == nil {
		return nil
	}
	select {
	case <-b.done:
		return b.ctx.Err()
	default:
	}
	if b.limited && n > 0 && b.remaining.Add(-n) < 0 {
		return ErrBudgetExhausted
	}
	return nil
}
