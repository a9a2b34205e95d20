// Command report regenerates the paper's results live from the pipeline
// and prints them as markdown: Tables I–II with the paper's reference
// values, Figures 1–10, the kernel gallery, the strategy ranking, the
// five-strategy comparison, the cache-thrashing count, and the executed
// L5′/L5″ validation.
//
// Usage:
//
//	report                        # every section to stdout
//	report -o report.md           # write to a file
//	report -sections figures      # Figures 1–10
//	report -sections validate     # run the derived L5′/L5″ plans; exit 1 on a mismatch
//	report -compare-out cmp.json  # also write the comparison artifact
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"commfree/internal/machine"
	"commfree/internal/report"
)

func main() {
	var (
		out        = flag.String("o", "", "output file (default stdout)")
		sections   = flag.String("sections", "all", "comma list of "+strings.Join(report.Sections(), ",")+", or 'all'")
		compareOut = flag.String("compare-out", "", "write the strategy-comparison JSON artifact to this file")
	)
	flag.Parse()

	names := report.Sections()
	if *sections != "all" {
		names = strings.FieldsFunc(*sections, func(r rune) bool { return r == ',' || r == ' ' })
	}
	if *compareOut != "" {
		cmp, err := report.Compare(4, machine.Transputer())
		if err != nil {
			fatal(err)
		}
		data, err := cmp.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*compareOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "comparison artifact written to", *compareOut)
	}
	md, err := report.Generate(names...)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Print(md)
		return
	}
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("report written to", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
