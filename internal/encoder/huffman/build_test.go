package huffman

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refNode and refHeap are the binary min-heap of all tree nodes that
// buildLengths replaced: ordered by (freq, idx), where a leaf's idx is its
// symbol and the k-th internal node's is len(freqs)+k.
type refNode struct {
	freq uint64
	idx  int
}

type refHeap []refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].idx < h[j].idx
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refNode)) }
func (h *refHeap) Pop() any {
	a := *h
	x := a[len(a)-1]
	*h = a[:len(a)-1]
	return x
}

// refBuildLengths is the heap construction, kept as buildLengths' oracle:
// pop the two lightest nodes, join them, push the join, and read each
// symbol's length off its parent chain.
func refBuildLengths(freqs []uint64) []uint8 {
	n := len(freqs)
	parent := make([]int, n, 2*n)
	h := refHeap{}
	for i, f := range freqs {
		parent[i] = -1
		if f > 0 {
			h = append(h, refNode{f, i})
		}
	}
	lengths := make([]uint8, n)
	if len(h) == 1 {
		lengths[h[0].idx] = 1
		return lengths
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(refNode)
		b := heap.Pop(&h).(refNode)
		next := len(parent)
		parent = append(parent, -1)
		parent[a.idx], parent[b.idx] = next, next
		heap.Push(&h, refNode{a.freq + b.freq, next})
	}
	for i, f := range freqs {
		if f == 0 {
			continue
		}
		d := 0
		for j := i; parent[j] >= 0; j = parent[j] {
			d++
		}
		lengths[i] = uint8(d)
	}
	return lengths
}

// refLengths is Build's length computation, rescales included, over
// refBuildLengths.
func refLengths(hist []uint32) []uint8 {
	freqs := make([]uint64, len(hist))
	for i, h := range hist {
		freqs[i] = uint64(h)
	}
	lengths := refBuildLengths(freqs)
	for maxOf(lengths) > maxCodeLen {
		for i := range freqs {
			if freqs[i] > 1 {
				freqs[i] = (freqs[i] + 1) / 2
			}
		}
		lengths = refBuildLengths(freqs)
	}
	return lengths
}

func checkBuildLengths(t *testing.T, name string, hist []uint32) {
	t.Helper()
	c, err := Build(hist)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := refLengths(hist); !bytes.Equal(c.lengths, want) {
		t.Fatalf("%s: lengths differ from the heap construction at symbol %d", name, firstDiff(c.lengths, want))
	}
}

// fibHist is a Fibonacci histogram of n symbols, the shape of the deepest
// tree: past 33 symbols its codes exceed maxCodeLen and Build rescales.
func fibHist(n int) []uint32 {
	h := make([]uint32, n)
	a, b := uint32(1), uint32(1)
	for i := range h {
		h[i] = a
		a, b = b, a+b
	}
	return h
}

func TestBuildLengthsMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	random := func(n int, max uint32, zeros float64) []uint32 {
		h := make([]uint32, n)
		for i := range h {
			if rng.Float64() >= zeros {
				h[i] = 1 + uint32(rng.Int63n(int64(max)))
			}
		}
		return h
	}
	tied := make([]uint32, 1000)
	for i := range tied {
		tied[i] = 7
	}
	flat := make([]uint32, 1<<16)
	for i := range flat {
		flat[i] = 1
	}
	// Powers of two tie every join with the next leaf.
	pow := make([]uint32, 40)
	for i := range pow {
		pow[i] = 1 << uint(i/2%31)
	}
	hists := map[string][]uint32{
		"tied":         tied,
		"flat65536":    flat,
		"single":       {0, 0, 9, 0},
		"single-first": {1},
		"two":          {0, 5, 0, 3},
		"two-tied":     {4, 4},
		"pow2-ties":    pow,
		"fib34":        fibHist(34),
		"fib46":        fibHist(46),
		"random65536":  random(1<<16, 1<<20, 0.3),
		"uint32-max":   random(300, 1<<32-1, 0.1),
		"nyx":          histOf(genLaplace(1<<18, 0.35, 0.0008, 3), 1024),
		"hacc":         histOf(genLaplace(1<<18, 20, 0.03, 3), 1024),
	}
	for name, h := range hists {
		checkBuildLengths(t, name, h)
	}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(2000)
		checkBuildLengths(t, fmt.Sprintf("random%d", i), random(n, 1+uint32(rng.Intn(1000)), rng.Float64()))
	}
}

// TestBuildLengthsAllocatesOnlyLengths pins the scratch contract: with a
// warm buildScratch, building the tree allocates the returned lengths and
// nothing else.
func TestBuildLengthsAllocatesOnlyLengths(t *testing.T) {
	hist := histOf(genLaplace(1<<18, 20, 0.03, 3), 1024)
	freqs := make([]uint64, len(hist))
	for i, h := range hist {
		freqs[i] = uint64(h)
	}
	sc := new(buildScratch)
	buildLengths(freqs, sc)
	if a := testing.AllocsPerRun(20, func() { buildLengths(freqs, sc) }); a != 1 {
		t.Errorf("warm buildLengths made %v allocations, want 1 (the lengths)", a)
	}
}

// FuzzBuildLengths reads the input as a histogram of 16-bit counts and
// requires Build's code lengths to equal the heap construction's.
func FuzzBuildLengths(f *testing.F) {
	f.Add([]byte{1, 0})
	f.Add([]byte{0, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 3, 0, 5, 0, 8, 0, 13, 0, 21, 0, 34, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		hist := make([]uint32, len(raw)/2)
		nonzero := false
		for i := range hist {
			hist[i] = uint32(raw[2*i]) | uint32(raw[2*i+1])<<8
			nonzero = nonzero || hist[i] > 0
		}
		if !nonzero {
			return
		}
		checkBuildLengths(t, "fuzz", hist)
	})
}
