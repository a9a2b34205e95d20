package machine_test

import (
	"fmt"

	"commfree/internal/machine"
)

// ExampleTableI regenerates one cell of the paper's evaluation: the
// speedups of L5′ and L5″ at M=256 on 16 processors (the paper measures
// 13.05 and 15.14 on real Transputers).
func ExampleTableI() {
	rows, err := machine.TableI([]int64{256}, []int{16}, machine.Transputer())
	if err != nil {
		fmt.Println(err)
		return
	}
	r := rows[0]
	fmt.Printf("L5' speedup %.1f, L5'' speedup %.1f\n",
		r.SpeedupPrime(), r.SpeedupDoublePrime())
	// Output:
	// L5' speedup 14.5, L5'' speedup 15.5
}
