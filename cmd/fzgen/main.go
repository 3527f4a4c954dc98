// Command fzgen writes the synthetic SDRBench stand-in datasets to disk as
// raw little-endian float32 files, for use with cmd/fzmod or external
// tools.
//
// Usage:
//
//	fzgen -dataset cesm|hacc|hurr|nyx [-dims 128x128x64] [-seed 42] [-o out.f32]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/sdrbench"
)

func main() {
	var (
		dsArg   = flag.String("dataset", "cesm", "dataset: cesm, hacc, hurr, nyx")
		dimsArg = flag.String("dims", "", "override dims, e.g. 128x128x64 (default: dataset default)")
		seed    = flag.Int64("seed", 42, "generator seed")
		out     = flag.String("o", "", "output file (default <dataset>.f32)")
	)
	flag.Parse()

	if err := run(*dsArg, *dimsArg, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "fzgen:", err)
		os.Exit(1)
	}
}

func run(dsArg, dimsArg string, seed int64, out string) error {
	var ds sdrbench.Dataset
	switch strings.ToLower(dsArg) {
	case "cesm":
		ds = sdrbench.CESM
	case "hacc":
		ds = sdrbench.HACC
	case "hurr":
		ds = sdrbench.HURR
	case "nyx":
		ds = sdrbench.NYX
	default:
		return fmt.Errorf("unknown dataset %q", dsArg)
	}
	dims := sdrbench.DefaultDims(ds)
	if dimsArg != "" {
		var err error
		dims, err = grid.ParseDims(dimsArg)
		if err != nil {
			return err
		}
	}
	if out == "" {
		out = strings.ToLower(dsArg) + ".f32"
	}
	data := sdrbench.Generate(ds, dims, seed)
	if err := os.WriteFile(out, device.F32Bytes(data), 0o644); err != nil {
		return err
	}
	fmt.Printf("%v %v (%d values, %d bytes) → %s\n", ds, dims, dims.N(), 4*dims.N(), out)
	return nil
}
