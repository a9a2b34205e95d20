package commfree

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/obs"
	"commfree/internal/selector"
	"commfree/internal/service"
)

// TestFacadeAgreesWithService: the facade and the compilation service
// run one compile pipeline. Over the shared corpus, every request
// strategy name and two machine sizes, they refuse the same programs and
// compile the same candidate to the same Ψ, Q and per-processor
// workloads, and the facade's traced compile records the same selection
// subtree as the service's cold compile.
func TestFacadeAgreesWithService(t *testing.T) {
	compiled := 0
	for i, src := range lang.Corpus() {
		// A service of its own: corpus programs may share a canonical
		// form, and a cached plan's trace has no selection.
		svc := service.New(service.Config{})
		defer svc.Close()
		for _, name := range []string{"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "mars", "auto"} {
			pin, err := selector.PinFor(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{4, 16} {
				at := fmt.Sprintf("corpus %d, %s, p = %d", i, name, p)
				trc := NewTrace("facade")
				comp, ferr := CompileTraced(src, pin, p, trc)
				resp, serr := svc.Compile(context.Background(), service.CompileRequest{Source: src, Strategy: name, Processors: p})
				if (ferr == nil) != (serr == nil) {
					t.Errorf("%s: facade error %v, service error %v", at, ferr, serr)
					continue
				}
				if ferr != nil {
					continue
				}
				compiled++
				plan := resp.Plan
				if comp.Chosen.Label != plan.Strategy {
					t.Errorf("%s: facade compiled %q, service %q", at, comp.Chosen.Label, plan.Strategy)
				}
				if got, want := fmt.Sprint(comp.Partition.Info().PsiBasis), fmt.Sprint(plan.Partition.PsiBasis); got != want {
					t.Errorf("%s: facade Ψ %s, service Ψ %s", at, got, want)
				}
				if got, want := fmt.Sprint(comp.Transformed.Q), fmt.Sprint(plan.Transform.QBasis); got != want {
					t.Errorf("%s: facade Q %s, service Q %s", at, got, want)
				}
				if got, want := comp.Assignment.Workloads(), plan.Assignment.Workloads; !slices.Equal(got, want) {
					t.Errorf("%s: facade workloads %v, service %v", at, got, want)
				}
				if got, want := selectionTree(trc), selectionTree(svc.Traces().Get(resp.TraceID)); !slices.Equal(got, want) {
					t.Errorf("%s: facade selection subtree %v, service %v", at, got, want)
				}
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no corpus program compiled")
	}
	t.Logf("%d compiles agree", compiled)
}

// selectionTree lists the spans under the trace's selection span as
// parent/child name pairs, sorted: classes are priced concurrently, so
// their order is not part of the shape.
func selectionTree(trc *obs.Trace) []string {
	spans := trc.Spans()
	in := map[obs.SpanID]string{}
	for _, sp := range spans {
		if sp.Name == "selection" && sp.Parent == 0 {
			in[sp.ID] = sp.Name
		}
	}
	var pairs []string
	for _, sp := range spans { // a child starts after its parent
		if parent, ok := in[sp.Parent]; ok {
			in[sp.ID] = sp.Name
			pairs = append(pairs, parent+"/"+sp.Name)
		}
	}
	slices.Sort(pairs)
	return pairs
}
