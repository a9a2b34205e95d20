package normalize

import (
	"errors"
	"testing"

	"commfree/internal/exec"
	"commfree/internal/lang"
)

const uniformSrc = `
for i = 1 to 4
  for j = 1 to 4
    A[i,j] = A[i-1,j] + B[j]
  end
end`

// mustParseAffine is lang.ParseAffine that panics on error.
func mustParseAffine(src string) *lang.AffineNest {
	a, err := lang.ParseAffine(src)
	if err != nil {
		panic(err)
	}
	return a
}

func TestIdentityOnUniform(t *testing.T) {
	a := mustParseAffine(uniformSrc)
	res, err := Apply(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identity {
		t.Fatalf("uniform nest not identity: %+v", res)
	}
	if res.Nest != a.Nest {
		t.Fatal("identity result must return the same nest pointer")
	}
	// And it must match the strict parser exactly.
	strict := lang.MustParse(uniformSrc)
	if lang.Canonical(res.Nest) != lang.Canonical(strict) {
		t.Fatalf("affine parse diverged from strict parse:\n%s\nvs\n%s",
			lang.Canonical(res.Nest), lang.Canonical(strict))
	}
}

func TestSymbolicOffsetElided(t *testing.T) {
	res, err := Source(`
for i = 1 to 6
  A[i+d] = A[i-1+d] + 1
end`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Identity {
		t.Fatal("symbolic nest cannot be identity")
	}
	if err := res.Nest.Validate(); err != nil {
		t.Fatal(err)
	}
	am := res.Arrays["A"]
	if am == nil || len(am.Rows) != 1 {
		t.Fatalf("missing relabel for A: %+v", res.Arrays)
	}
	row := am.Rows[0]
	if row.Scale != 1 || row.Shift != 0 || len(row.Sym) != 1 || row.Sym[0].Name != "d" || row.Sym[0].Coeff != 1 {
		t.Fatalf("unexpected row map %+v", row)
	}
	// The normalized nest is the d-free twin.
	twin := lang.MustParse(`
for i = 1 to 6
  A[i] = A[i-1] + 1
end`)
	if lang.Canonical(res.Nest) != lang.Canonical(twin) {
		t.Fatalf("normalized nest != twin:\n%s\nvs\n%s", lang.Canonical(res.Nest), lang.Canonical(twin))
	}
}

func TestSingletonFoldAndCompress(t *testing.T) {
	// k is pinned to 2; the write and read disagree only in k's column.
	res, err := Source(`
for i = 1 to 5
  for k = 2 to 2
    A[i+k] = A[i+2k-2] + 1
  end
end`)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Nest.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Folded) != 1 || res.Folded[0] != 1 {
		t.Fatalf("expected level 1 folded, got %v", res.Folded)
	}
	twin := lang.MustParse(`
for i = 1 to 5
  for k = 2 to 2
    A[i+2] = A[i+2] + 1
  end
end`)
	if lang.Canonical(res.Nest) != lang.Canonical(twin) {
		t.Fatalf("normalized nest != twin:\n%s\nvs\n%s", lang.Canonical(res.Nest), lang.Canonical(twin))
	}
}

func TestStrideCompression(t *testing.T) {
	// The symbolic offset forces the pass off the identity path; the
	// dilated row 2i+1 (all offsets ≡ 1 mod 2) then compresses to i.
	res, err := Source(`
for i = 1 to 6
  A[2i+1+d] = A[2i-1+d] + 1
end`)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Nest.Validate(); err != nil {
		t.Fatal(err)
	}
	am := res.Arrays["A"]
	if am == nil {
		t.Fatal("missing relabel for A")
	}
	row := am.Rows[0]
	if row.Scale != 2 || row.Shift != 1 {
		t.Fatalf("expected old = 2·new + 1 (+ d), got %+v", row)
	}
	twin := lang.MustParse(`
for i = 1 to 6
  A[i] = A[i-1] + 1
end`)
	if lang.Canonical(res.Nest) != lang.Canonical(twin) {
		t.Fatalf("normalized nest != twin:\n%s\nvs\n%s", lang.Canonical(res.Nest), lang.Canonical(twin))
	}
	// Grounding: run the normalized nest with initial values drawn at
	// the original (relabeled-back) coordinates; mapping every written
	// element through OldIndex must reproduce exactly the state of the
	// raw affine nest bound at d=3.
	a := mustParseAffine(`
for i = 1 to 6
  A[2i+1+d] = A[2i-1+d] + 1
end`)
	vals := map[string]int64{"d": 3}
	bound, err := a.Bind(vals)
	if err != nil {
		t.Fatal(err)
	}
	rawState := exec.Sequential(bound, nil)
	normState := exec.SequentialInit(res.Nest, nil, func(arr string, idx []int64) float64 {
		return exec.InitValue(arr, res.OldIndex(arr, idx, vals))
	})
	mapped := map[string]float64{}
	for k, v := range normState {
		arr, idx, err := exec.ParseKey(k)
		if err != nil {
			t.Fatal(err)
		}
		mapped[exec.Key(arr, res.OldIndex(arr, idx, vals))] = v
	}
	if err := exec.Equal(mapped, rawState); err != nil {
		t.Fatalf("grounding failed: %v", err)
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		class Class
	}{
		{"variable-distance", `
for i = 1 to 6
  A[2i] = A[i] + 1
end`, ClassVariableDistance},
		{"coupled-subscripts", `
for i = 1 to 4
  for j = 1 to 4
    B[i,j] = B[j,i] + 1
  end
end`, ClassCoupledSubscripts},
		{"non-invertible", `
for i = 1 to 4
  for j = 1 to 4
    A[i+j,i+j] = A[i,j] + 1
  end
end`, ClassNonInvertibleIndexMap},
		{"symbolic-stride", `
for i = 1 to 6
  A[n*i] = A[n*i-1] + 1
end`, ClassSymbolicStride},
		{"symbolic-offset-mismatch", `
for i = 1 to 6
  A[i+d] = A[i] + 1
end`, ClassSymbolicOffsetMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Source(tc.src)
			var ce *ClassifyError
			if !errors.As(err, &ce) {
				t.Fatalf("expected ClassifyError, got %v", err)
			}
			if ce.Class != tc.class {
				t.Fatalf("class = %s, want %s (err: %v)", ce.Class, tc.class, ce)
			}
		})
	}
}
