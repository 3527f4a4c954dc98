package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and the share by which it may worsen.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareDirs prints one row per workload × end-to-end metric of the result
// directories base and next (as -all writes them), with next ÷ base, the
// metric's bound from ./BENCHMARK.json and a verdict: "regressed" when next
// is worse than base by more than the bound, "unresolved" when it is but the
// metric's own spread inside either run (its quartile distance over its
// median) is wider than the bound, "ok" otherwise. It fails on any regression.
func compareDirs(base, next string) error {
	var spec benchSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		return err
	}
	regressed := 0
	fmt.Printf("%-14s %-18s %12s %12s %9s %6s  %s\n", "workload", "metric", "base", "next", "next/base", "bound", "verdict")
	for _, w := range workloads {
		var a, b result
		if err := readJSON(filepath.Join(base, w.name+".json"), &a); err != nil {
			return err
		}
		if err := readJSON(filepath.Join(next, w.name+".json"), &b); err != nil {
			return err
		}
		if a.Meta.KernelTier != b.Meta.KernelTier {
			return fmt.Errorf("%s: kernel tiers differ (%s vs %s); the results are not comparable", w.name, a.Meta.KernelTier, b.Meta.KernelTier)
		}
		for _, e := range spec.EndToEnd {
			ma, mb := a.Metrics[e.Name], b.Metrics[e.Name]
			ratio := div(mb.Value, ma.Value)
			worse := ratio - 1
			if e.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "regressed"
				if spread(ma) > e.Bound || spread(mb) > e.Bound {
					verdict = "unresolved"
				} else {
					regressed++
				}
			}
			fmt.Printf("%-14s %-18s %12.6g %12.6g %9.4f %6.3f  %s\n", w.name, e.Name, ma.Value, mb.Value, ratio, e.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressed)
	}
	return nil
}

// spread is a timing metric's quartile distance over its median; 0 for a
// metric without samples (a count or a ratio repeats exactly).
func spread(m metric) float64 {
	if m.N == 0 {
		return 0
	}
	return div(math.Abs(m.P75-m.P25), m.Value)
}
