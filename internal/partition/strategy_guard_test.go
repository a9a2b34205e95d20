package partition

import (
	"encoding/json"
	"testing"
)

// Compile-time exhaustiveness guard: adding (or removing) a Strategy
// value without updating NumStrategies makes one of these constants
// negative, which fails to compile. The tests below then enumerate
// [0, NumStrategies) and fail at runtime if any classification switch
// was left without an explicit case for the new value.
const (
	_ = uint(NumStrategies - (int(Mars) + 1)) // NumStrategies < last value + 1 → compile error
	_ = uint((int(Mars) + 1) - NumStrategies) // NumStrategies > last value + 1 → compile error
)

// TestStrategyRoundTrip is the table-driven satellite test: every
// Strategy value must have a distinct paper name and wire name, survive
// a JSON round-trip and a wire-name round-trip unchanged, and be
// explicitly classified by Minimal() —
// a fallthrough to the default String() spelling means a switch
// missed the value.
func TestStrategyRoundTrip(t *testing.T) {
	tests := []struct {
		strat   Strategy
		name    string
		wire    string
		minimal bool
	}{
		{NonDuplicate, "non-duplicate", "non-duplicate", false},
		{Duplicate, "duplicate", "duplicate", false},
		{MinimalNonDuplicate, "minimal non-duplicate", "minimal-non-duplicate", true},
		{MinimalDuplicate, "minimal duplicate", "minimal-duplicate", true},
		{Selective, "selective duplicate", "selective", false},
		{Mars, "mars", "mars", true},
	}
	if len(tests) != NumStrategies {
		t.Fatalf("table covers %d strategies, enum has %d — add the new value here", len(tests), NumStrategies)
	}
	seen := map[string]bool{}
	for _, tc := range tests {
		if got := tc.strat.String(); got != tc.name {
			t.Errorf("%d.String() = %q, want %q", int(tc.strat), got, tc.name)
		}
		if seen[tc.name] {
			t.Errorf("duplicate strategy name %q", tc.name)
		}
		seen[tc.name] = true
		if got := tc.strat.WireName(); got != tc.wire {
			t.Errorf("%s.WireName() = %q, want %q", tc.strat, got, tc.wire)
		}
		if back, ok := Named(tc.wire); !ok || back != tc.strat {
			t.Errorf("Named(%q) = %s, %v; want %s", tc.wire, back, ok, tc.strat)
		}
		if got := tc.strat.Minimal(); got != tc.minimal {
			t.Errorf("%s.Minimal() = %v, want %v", tc.strat, got, tc.minimal)
		}

		data, err := json.Marshal(tc.strat)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		var back Strategy
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", tc.name, data, err)
		}
		if back != tc.strat {
			t.Errorf("%s: JSON round-trip gave %s", tc.name, back)
		}
	}

	// The enum has no gaps: every value in [0, NumStrategies) carries a
	// real name (the default String() spelling marks an unswitched one).
	for s := Strategy(0); int(s) < NumStrategies; s++ {
		if got := s.String(); len(got) >= len("Strategy(") && got[:len("Strategy(")] == "Strategy(" {
			t.Errorf("Strategy(%d) has no explicit String case", int(s))
		}
	}
	if s, ok := Named("auto"); ok {
		t.Errorf(`Named("auto") = %s: "auto" names no strategy`, s)
	}
}

// TestStrategyResultClassification pins the Result-level classification
// switches (AllowsDuplication) for every enum value, so a new strategy
// cannot silently inherit the zero-value behavior.
func TestStrategyResultClassification(t *testing.T) {
	want := map[Strategy]bool{
		NonDuplicate:        false,
		Duplicate:           true,
		MinimalNonDuplicate: false,
		MinimalDuplicate:    true,
		Selective:           true,
		Mars:                true,
	}
	if len(want) != NumStrategies {
		t.Fatalf("table covers %d strategies, enum has %d", len(want), NumStrategies)
	}
	for s, dup := range want {
		r := &Result{Strategy: s}
		if got := r.AllowsDuplication(); got != dup {
			t.Errorf("%s.AllowsDuplication() = %v, want %v", s, got, dup)
		}
	}
}
