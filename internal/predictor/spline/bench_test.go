package spline

import (
	"slices"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/sdrbench"
)

// BenchmarkSpline times Encode and Decode with one worker, in ns per point,
// on the cesm-quality chunk (1800×150 CESM, seed 42, relative bound 1e-4,
// the Quality preset's Cubic + TuneOrder) and on a 3-D NYX block.
//
//	go test -run '^$' -bench Spline ./internal/predictor/spline
func BenchmarkSpline(b *testing.B) {
	p := tp.WithWorkers(1)
	cfg := Config{Mode: Cubic, TuneOrder: true}
	cesm, cesmDims, cesmEB := cesmChunk()
	nyxDims := grid.D3(96, 96, 64)
	nyx := sdrbench.Generate(sdrbench.NYX, nyxDims, 42)
	for _, c := range []struct {
		name string
		data []float32
		dims grid.Dims
		eb   float64
	}{
		{"cesm-1800x150", cesm, cesmDims, cesmEB},
		{"nyx-96x96x64", nyx, nyxDims, 1e-4 * float64(slices.Max(nyx)-slices.Min(nyx))},
	} {
		n := float64(c.dims.N())
		b.Run(c.name+"/encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Encode(p, device.Accel, c.data, c.dims, c.eb, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
		})
		q, err := Encode(p, device.Accel, c.data, c.dims, c.eb, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Decode(p, device.Accel, q, c.dims, c.eb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
		})
	}
}
