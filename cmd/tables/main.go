// Command tables regenerates Tables I and II of the paper: execution
// times and speedups of matrix multiplication under the sequential (L5),
// partially duplicated (L5′), and doubly duplicated (L5″) schemes on the
// simulated Transputer mesh.
//
// Usage:
//
//	tables            # both tables
//	tables -table 2   # only Table II
//	tables -validate  # additionally compile L5′/L5″ and execute their derived plans (M ≤ 64)
package main

import (
	"flag"
	"fmt"
	"os"

	"commfree"
)

func main() {
	var (
		table    = flag.Int("table", 0, "table number (1 or 2); 0 prints both")
		validate = flag.Bool("validate", false, "compile L5' and L5'' at small problem sizes, execute their derived distribution plans with real data and compare against sequential matrix multiplication")
	)
	flag.Parse()

	ms := []int64{16, 32, 64, 128, 256}
	ps := []int{4, 16}
	cost := commfree.TransputerCost()
	rows, err := commfree.TableI(ms, ps, cost)
	if err != nil {
		fatal(err)
	}
	byP := map[int][]commfree.TableRow{}
	for _, r := range rows {
		byP[r.P] = append(byP[r.P], r)
	}

	if *table == 0 || *table == 1 {
		fmt.Println("TABLE I — EXECUTION TIME OF LOOPS L5, L5', AND L5'' (in s, simulated)")
		fmt.Printf("%-22s %-6s", "Number of processors", "Loop")
		for _, m := range ms {
			fmt.Printf(" %10d", m)
		}
		fmt.Println()
		fmt.Printf("%-22s %-6s", "p = 1", "L5")
		for _, r := range byP[4] {
			fmt.Printf(" %10.4f", r.Sequential)
		}
		fmt.Println()
		for _, p := range ps {
			fmt.Printf("%-22s %-6s", fmt.Sprintf("p = %d", p), "L5'")
			for _, r := range byP[p] {
				fmt.Printf(" %10.4f", r.Prime)
			}
			fmt.Println()
			fmt.Printf("%-22s %-6s", "", "L5''")
			for _, r := range byP[p] {
				fmt.Printf(" %10.4f", r.DoublePrime)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if *table == 0 || *table == 2 {
		fmt.Println("TABLE II — SPEEDUP OF LOOPS L5' AND L5'' (simulated)")
		fmt.Printf("%-22s %-6s", "Number of processors", "Loop")
		for _, m := range ms {
			fmt.Printf(" %10d", m)
		}
		fmt.Println()
		for _, p := range ps {
			fmt.Printf("%-22s %-6s", fmt.Sprintf("p = %d", p), "L5'")
			for _, r := range byP[p] {
				fmt.Printf(" %10.2f", r.SpeedupPrime())
			}
			fmt.Println()
			fmt.Printf("%-22s %-6s", "", "L5''")
			for _, r := range byP[p] {
				fmt.Printf(" %10.2f", r.SpeedupDoublePrime())
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if *validate {
		fmt.Println("validation (compiled plans, real data, strictly local memories):")
		for _, cfg := range []struct {
			m int64
			p int
		}{{16, 4}, {16, 16}, {32, 16}, {64, 16}} {
			want := commfree.SequentialMatMul(cfg.m)
			fmt.Printf("  M=%-3d p=%-2d", cfg.m, cfg.p)
			ok := true
			for _, l := range []struct {
				name string
				run  func(int64, int, commfree.CostModel) (*commfree.ExecutionReport, *commfree.DistributionPlan, error)
			}{{"L5'", commfree.RunL5Prime}, {"L5''", commfree.RunL5DoublePrime}} {
				rep, plan, err := l.run(cfg.m, cfg.p, cost)
				if err != nil {
					fatal(err)
				}
				correct := commfree.Mismatches(rep.Final, want) == 0 && rep.Machine.InterNodeMessages() == 0
				ok = ok && correct
				st := plan.Stats()
				fmt.Printf("  %s correct=%v (%d unicasts, %d multicasts, %d broadcasts)",
					l.name, correct, st.Unicasts, st.Multicasts, st.Broadcasts)
			}
			fmt.Println()
			if !ok {
				fatal(fmt.Errorf("validation failed at M=%d p=%d", cfg.m, cfg.p))
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
