// Climate: the paper's motivating scenario — a climate-model snapshot
// must be reduced before hitting storage. The example compares the three
// preset pipelines (and the secondary-encoder variant) on a CESM-ATM-like
// field across the paper's three error bounds, printing the
// ratio/throughput/quality trade each pipeline makes so a domain user can
// pick one.
package main

import (
	"fmt"
	"log"
	"time"

	"fzmod"
	"fzmod/internal/sdrbench"
)

func main() {
	dims := fzmod.Dims3(256, 128, 8)
	data := sdrbench.GenCESM(dims, 2026)
	platform := fzmod.NewPlatform()

	pipelines := fzmod.Presets()
	pipelines = append(pipelines, fzmod.WithZstdSlot(fzmod.Default()))

	fmt.Printf("CESM-ATM-like field %v (%.1f MB)\n\n", dims, float64(4*dims.N())/1e6)
	fmt.Printf("%-20s %-8s %10s %12s %10s %12s\n",
		"pipeline", "eb", "ratio", "comp GB/s", "PSNR dB", "max err")
	for _, eb := range []float64{1e-2, 1e-4, 1e-6} {
		for _, pl := range pipelines {
			t0 := time.Now()
			blob, err := pl.Compress(platform, data, dims, fzmod.Rel(eb))
			sec := time.Since(t0).Seconds()
			if err != nil {
				log.Fatalf("%s: %v", pl.Name(), err)
			}
			back, _, err := pl.Decompress(platform, blob)
			if err != nil {
				log.Fatalf("%s: %v", pl.Name(), err)
			}
			q, err := fzmod.Evaluate(platform, data, back)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-20s %-8.0e %9.1fx %12.3f %10.1f %12.3g\n",
				pl.Name(), eb,
				fzmod.CompressionRatio(4*dims.N(), len(blob)),
				float64(4*dims.N())/sec/1e9,
				q.PSNR, q.MaxAbsErr)
		}
		fmt.Println()
	}
	fmt.Println("Reading the table: -speed buys throughput with ratio, -quality buys")
	fmt.Println("ratio/PSNR with throughput, -default sits between (paper §3.3).")
}
