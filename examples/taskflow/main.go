// Taskflow: the task graph behind every compress and decompress (§3.3.1).
// The example compresses a field as two chunks, prints the inferred
// dependency DAG in Graphviz dot syntax, then decompresses it and shows
// the execution trace. The two chunks' sub-graphs share no token, so the
// scheduler runs them as independent branches: one chunk's decode can
// overlap the other's.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"fzmod"
)

func main() {
	// A smooth 128×128×32 field, standing in for one simulation variable.
	dims := fzmod.Dims3(128, 128, 32)
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
	const absEB = 1e-3

	blob, compReport, err := fzmod.Default().CompressChunkedReport(platform, data, dims, fzmod.Abs(absEB),
		fzmod.ChunkOpts{ChunkElems: dims.N() / 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Compression task graph (per chunk: predict → encode → serialize; layout joins the chunks):")
	fmt.Println(compReport.DOT)

	back, _, decReport, err := fzmod.Decompress(context.Background(), platform, blob, fzmod.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	if i := fzmod.VerifyBound(data, back, absEB); i != -1 {
		log.Fatalf("bound violated at %d", i)
	}
	fmt.Println("Decompression task graph (per chunk: fetch → decode → reconstruct):")
	fmt.Println(decReport.DOT)

	fmt.Println("Execution trace:")
	for _, tr := range decReport.Trace {
		fmt.Printf("  %-16s @%-6s %8.2f ms (start +%.2f ms)\n",
			tr.Name, tr.Place,
			tr.End.Sub(tr.Start).Seconds()*1e3,
			tr.Start.Sub(decReport.Trace[0].Start).Seconds()*1e3)
	}
	fmt.Printf("tasks: %d, critical path: %d, branches overlapped: %v\n",
		decReport.Tasks, decReport.CriticalPath, decReport.Overlapped())
	fmt.Printf("buffer pool: %d gets, %.0f%% hit rate\n",
		decReport.Pool.Gets, 100*decReport.Pool.HitRate())
	fmt.Printf("ratio: %.1fx, bound verified at eb=%g\n",
		fzmod.CompressionRatio(4*dims.N(), len(blob)), absEB)
}
