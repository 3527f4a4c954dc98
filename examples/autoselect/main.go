// Autoselect: the module auto-selection mechanism the paper lists as
// future work (§5, item 3), implemented over the framework's module table.
// The example profiles each synthetic dataset, shows which pipeline the
// selector composes under each objective, and compares the auto-selected
// pipeline against the three fixed presets.
package main

import (
	"fmt"
	"log"

	"fzmod"
	"fzmod/internal/core"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

func main() {
	platform := fzmod.NewPlatform()
	eb := preprocess.RelBound(1e-3)

	for _, ds := range sdrbench.All() {
		dims := grid.D3(64, 64, 16)
		if ds == sdrbench.HACC {
			dims = grid.D1(1 << 17)
		}
		data := sdrbench.Generate(ds, dims, 99)

		fmt.Printf("== %s %v ==\n", ds, dims)
		for _, obj := range []core.Objective{core.Balanced, core.MaxThroughput, core.MaxRatio} {
			pl, prof, err := core.AutoSelect(platform, data, dims, eb, obj)
			if err != nil {
				log.Fatal(err)
			}
			blob, err := pl.Compress(platform, data, dims, eb)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-15s → %-24s CR %6.1f  (delta %.2f quanta, spline adv %.2fx, zero %.0f%%)\n",
				obj, pl.Name(),
				fzmod.CompressionRatio(4*dims.N(), len(blob)),
				prof.DeltaQuanta, prof.SplineAdvantage, 100*prof.ZeroDeltaFrac)
		}
		// Reference: the fixed presets on the same data.
		for _, pl := range fzmod.Presets() {
			blob, err := pl.Compress(platform, data, dims, eb)
			if err != nil {
				fmt.Printf("  preset %-22s (rejected: %v)\n", pl.Name(), err)
				continue
			}
			fmt.Printf("  preset %-22s CR %6.1f\n", pl.Name(),
				fzmod.CompressionRatio(4*dims.N(), len(blob)))
		}
		fmt.Println()
	}
}
