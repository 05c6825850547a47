package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// extraBounds bound the end-to-end metrics only some workloads produce
// (report.Extra); all are lower-is-better. BENCHMARK.json cannot carry
// them, because the driver wants every listed metric from every workload.
// Each is 1.5× the widest spread the repeatability runs measured (README.md,
// "Measured spreads": 9.8%, 20.9% and 14.4%), capped at 0.25.
var extraBounds = map[string]float64{
	"write_p50_ms": 0.15,
	"write_p99_ms": 0.25,
	"recovery_s":   0.22,
}

// minRuns is the fewest runs a side needs before compare judges a
// difference: the quartiles of fewer say nothing about the spread.
const minRuns = 5

type series struct {
	bound  float64
	higher bool // higher is better
	sets   [2][]float64
}

// quartiles follows Python's statistics.quantiles(v, n=4) (exclusive
// method), which is what the driver's acceptance check uses.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// compareMain implements `softbench compare base... [--vs new...]`. With
// one set it prints each end-to-end metric × workload's median, quartiles
// and spread (interquartile range ÷ median) against its bound. With two it
// adds the relative difference of the medians, worse-positive, and a
// verdict: "unresolved" — never "unchanged" — when either set's spread
// exceeds the bound, since the runs then cannot tell a regression of that
// size from noise. Exit status 1 reports a regression.
func compareMain(args []string) int {
	var files [2][]string
	set := 0
	for _, a := range args {
		if a == "--vs" || a == "-vs" {
			set = 1
			continue
		}
		files[set] = append(files[set], a)
	}
	if len(files[0]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: softbench compare base.json... [--vs new.json...]   (run from the repository root, beside BENCHMARK.json)")
		return 2
	}
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "softbench compare: BENCHMARK.json:", err)
		return 1
	}
	bounds := map[string]series{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = series{bound: m.Bound, higher: m.Better == "higher"}
	}
	for name, b := range extraBounds {
		bounds[name] = series{bound: b}
	}

	all := map[string]*series{} // "workload metric"
	for set, names := range files {
		for _, name := range names {
			var doc struct {
				Reports []*report `json:"reports"`
			}
			data, err := os.ReadFile(name)
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "softbench compare: %s: %v\n", name, err)
				return 1
			}
			for _, rep := range doc.Reports {
				if rep.Traced {
					continue
				}
				for _, ms := range []map[string]metric{rep.Metrics, rep.Extra} {
					for metricName, m := range ms {
						b, ok := bounds[metricName]
						if !ok {
							continue
						}
						key := fmt.Sprintf("%-17s %s", rep.Workload, metricName)
						if all[key] == nil {
							cp := b
							all[key] = &cp
						}
						all[key].sets[set] = append(all[key].sets[set], m.Value)
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	two := len(files[1]) > 0
	fmt.Printf("%-36s %5s %3s %12s %12s %12s %7s", "workload          metric", "bound", "n", "q1", "median", "q3", "spread")
	if two {
		fmt.Printf(" | %3s %12s %7s %8s  %s", "n", "median", "spread", "worse by", "verdict")
	}
	fmt.Println()
	status := 0
	for _, k := range keys {
		s := all[k]
		if len(s.sets[0]) == 0 {
			continue
		}
		q1, med, q3 := quartiles(s.sets[0])
		spread := (q3 - q1) / med
		fmt.Printf("%-36s %5.2f %3d %12.4f %12.4f %12.4f %6.1f%%", k, s.bound, len(s.sets[0]), q1, med, q3, 100*spread)
		if !two {
			if spread > s.bound {
				fmt.Print("  spread exceeds the bound")
			}
			fmt.Println()
			continue
		}
		if len(s.sets[1]) == 0 {
			fmt.Println(" | absent from the second set")
			continue
		}
		n1, nmed, n3 := quartiles(s.sets[1])
		nspread := (n3 - n1) / nmed
		worse := (nmed - med) / med
		if s.higher {
			worse = -worse
		}
		verdict := "within bound"
		switch {
		case len(s.sets[0]) < minRuns || len(s.sets[1]) < minRuns:
			verdict = fmt.Sprintf("unresolved (fewer than %d runs a side: no spread to judge by)", minRuns)
		case spread > s.bound || nspread > s.bound:
			verdict = "unresolved (spread exceeds the bound)"
		case worse > s.bound:
			verdict = "REGRESSED"
			status = 1
		}
		fmt.Printf(" | %3d %12.4f %6.1f%% %+7.1f%%  %s\n", len(s.sets[1]), nmed, 100*nspread, 100*worse, verdict)
	}
	return status
}
