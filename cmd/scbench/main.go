// Command scbench runs the paper-reproduction experiment suite (E1–E13
// plus the systems experiments, see DESIGN.md and EXPERIMENTS.md) and
// prints one result table per experiment. TestSemanticCounts, at the
// repository root, pins the experiment workloads' deterministic counts.
//
// Usage:
//
//	scbench [-only E1,E5] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"softdb/internal/bench"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		rep, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}
