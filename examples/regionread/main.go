// Command regionread demonstrates random-access region reads over remote
// chunk storage: it compresses a 256³ synthetic field into a chunked
// container on disk, serves that file over HTTP from a local listener,
// and then reads three subvolumes through the HTTP range-request fetcher —
// fetching and decoding only the slab chunks each selection intersects,
// with decoded slabs shared across reads through an in-memory cache.
//
//	go run ./examples/regionread [-n 256]
//
// The output shows, per read, how many chunks the selection touched, how
// many were actually fetched+decoded versus served from the slab cache,
// and what fraction of the container's bytes travelled over the wire.
// See docs/FORMAT.md for the container layout that makes the index
// fetchable without reading the payload.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fzmod"
)

// n is declared at package level so that main can run more than once in
// one process (main_test.go calls it).
var n = flag.Int("n", 256, "field extent per axis")

func main() {
	flag.Parse()

	platform := fzmod.NewPlatform()
	dims := fzmod.Dims3(*n, *n, *n)
	data := make([]float32, dims.N())
	for z := 0; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				v := math.Sin(float64(x)/19) * math.Cos(float64(y)/23) * math.Sin(float64(z)/29)
				data[dims.Idx(x, y, z)] = float32(v)
			}
		}
	}

	// Eight slab chunks along z, written to disk as one FZMC container.
	blob, _, err := fzmod.Default().CompressChunkedReport(platform, data, dims, fzmod.Rel(1e-4),
		fzmod.ChunkOpts{ChunkElems: dims.X * dims.Y * (dims.Z / 8)})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "regionread")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "field.fz")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("container: %v field → %d chunks, %d bytes (%s)\n",
		dims, 8, len(blob), path)

	// Serve the container over HTTP. http.FileServer honors Range
	// requests, which is all the fetcher needs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: http.FileServer(http.Dir(dir))}
	go srv.Serve(ln)
	defer srv.Close()
	url := fmt.Sprintf("http://%s/field.fz", ln.Addr())
	fmt.Printf("serving:   %s\n\n", url)

	// One region reader, one shared slab cache: repeated reads of the
	// same slabs are served locally instead of re-fetched.
	cache := fzmod.NewSlabCache(256 << 20)
	region, err := fzmod.OpenRegion(platform, fzmod.NewHTTPFetcher(url, nil),
		fzmod.RegionOpts{Cache: cache})
	if err != nil {
		log.Fatal(err)
	}

	slab := dims.Z / 8
	sels := []struct {
		name string
		sel  fzmod.RegionSel
	}{
		// Interior of a single chunk: 1 of 8 chunks fetched.
		{"chunk interior", fzmod.RegionSel{
			X0: dims.X / 4, X1: 3 * dims.X / 4,
			Y0: dims.Y / 4, Y1: 3 * dims.Y / 4,
			Z0: 2*slab + 2, Z1: 3*slab - 2}},
		// Spans a slab boundary: two chunks, one already cached.
		{"slab boundary", fzmod.RegionSel{
			X0: 0, X1: dims.X,
			Y0: 0, Y1: dims.Y,
			Z0: 3*slab - 4, Z1: 3*slab + 4}},
		// Re-read of the first selection: pure cache hit, zero fetches.
		{"repeat read", fzmod.RegionSel{
			X0: dims.X / 4, X1: 3 * dims.X / 4,
			Y0: dims.Y / 4, Y1: 3 * dims.Y / 4,
			Z0: 2*slab + 2, Z1: 3*slab - 2}},
	}

	for _, s := range sels {
		t0 := time.Now()
		vals, report, err := region.ReadReport(s.sel)
		if err != nil {
			log.Fatal(err)
		}
		rs := report.Region
		// Every returned value must match the original within the bound.
		if i := fzmod.VerifyBound(sliceRegion(data, dims, s.sel), vals, regionEB(region)); i != -1 {
			log.Fatalf("%s: bound violated at %d", s.name, i)
		}
		fmt.Printf("%-15s %s: %7d values in %6.1fms — %d chunk(s), %d decoded, %d cached, %d bytes fetched (%.1f%% of container)\n",
			s.name, s.sel, len(vals), 1e3*time.Since(t0).Seconds(),
			rs.Chunks, rs.Decoded, rs.CacheHits, rs.PayloadBytes,
			100*float64(rs.PayloadBytes)/float64(len(blob)))
	}

	st := cache.Stats()
	fmt.Printf("\nslab cache: %d hits / %d lookups (%.0f%% hit rate), %d slabs resident (%d bytes)\n",
		st.Hits, st.Hits+st.Misses, 100*float64(st.Hits)/float64(st.Hits+st.Misses),
		st.Entries, st.Bytes)
}

// sliceRegion extracts sel from the original field for verification.
func sliceRegion(data []float32, dims fzmod.Dims, sel fzmod.RegionSel) []float32 {
	out := make([]float32, 0, sel.Dims().N())
	for z := sel.Z0; z < sel.Z1; z++ {
		for y := sel.Y0; y < sel.Y1; y++ {
			row := dims.Idx(sel.X0, y, z)
			out = append(out, data[row:row+sel.X1-sel.X0]...)
		}
	}
	return out
}

// regionEB returns the container's resolved absolute error bound.
func regionEB(r *fzmod.Region) float64 { return r.Index().Header.EB }
