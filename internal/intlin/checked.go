package intlin

import (
	"errors"
	"math"
)

// ErrOverflow is the panic value of every exact computation whose result
// leaves int64. It is the program's doing — its coefficients are too
// large to analyse exactly — so the boundaries that take untrusted input
// recover it into an error; this file is the only place it is raised.
var ErrOverflow = errors.New("intlin: int64 overflow")

// Neg returns −x.
func Neg(x int64) int64 {
	if x == math.MinInt64 {
		panic(ErrOverflow)
	}
	return -x
}

// Abs returns |x|.
func Abs(x int64) int64 {
	if x < 0 {
		return Neg(x)
	}
	return x
}

// Add returns a + b.
func Add(a, b int64) int64 {
	s := a + b
	if (a^s)&(b^s) < 0 { // a and b share a sign s does not
		panic(ErrOverflow)
	}
	return s
}

// Mul returns a·b. Operands that fit in int32 cannot overflow, so the
// division check only runs for larger ones.
func Mul(a, b int64) int64 {
	p := a * b
	if (a != int64(int32(a)) || b != int64(int32(b))) && a != 0 && (p/a != b || (a == -1 && b == math.MinInt64)) {
		panic(ErrOverflow)
	}
	return p
}

// MulAdd returns acc + a·b.
func MulAdd(acc, a, b int64) int64 { return Add(acc, Mul(a, b)) }

// Quo returns a/d truncated, for a nonzero d.
func Quo(a, d int64) int64 {
	if d == -1 {
		return Neg(a) // MinInt64 / −1 leaves int64
	}
	return a / d
}

// FloorDiv and CeilDiv divide by a positive d, rounding down and up.
func FloorDiv(a, d int64) int64 {
	q := a / d
	if a%d != 0 && a < 0 {
		q--
	}
	return q
}

func CeilDiv(a, d int64) int64 {
	q := a / d
	if a%d != 0 && a > 0 {
		q++
	}
	return q
}
