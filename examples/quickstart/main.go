// Quickstart: compress a synthetic 3-D field with the default pipeline,
// decompress it, and verify the error bound — the 30-line happy path of
// the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"fzmod"
)

func main() {
	// A smooth 64³ field, standing in for one simulation variable.
	dims := fzmod.Dims3(64, 64, 64)
	data := make([]float32, dims.N())
	for z := 0; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				v := math.Sin(0.1*float64(x))*math.Cos(0.07*float64(y)) + 0.5*math.Sin(0.05*float64(z))
				data[dims.Idx(x, y, z)] = float32(v)
			}
		}
	}

	platform := fzmod.NewPlatform()
	pipeline := fzmod.Default()

	blob, err := pipeline.Compress(platform, data, dims, fzmod.Rel(1e-4))
	if err != nil {
		log.Fatal(err)
	}
	back, _, _, err := fzmod.Decompress(context.Background(), platform, blob, fzmod.Opts{})
	if err != nil {
		log.Fatal(err)
	}

	q, err := fzmod.Evaluate(platform, data, back)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline:   %s\n", pipeline.Describe())
	fmt.Printf("ratio:      %.1fx (%d → %d bytes)\n",
		fzmod.CompressionRatio(4*dims.N(), len(blob)), 4*dims.N(), len(blob))
	fmt.Printf("PSNR:       %.1f dB, max error %.3g\n", q.PSNR, q.MaxAbsErr)
}
