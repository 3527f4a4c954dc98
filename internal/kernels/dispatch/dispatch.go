// Package dispatch selects a SIMD implementation tier for the framework's
// hottest per-element loops — Lorenzo fused quantize+residual rows, the
// one-pass Lorenzo reconstruct row (code → residual → x-scan → + row
// above → + plane behind → scale → store), histogram accumulation,
// MinMaxF32, outlier code scanning, the Huffman encode length-summing
// pre-pass and grouped code emitter, and the bitshuffle / unbitshuffle
// bit-matrix transposes of the fzg encoder (16-bit, with its recentring)
// and the PFPL baseline (32-bit) — at process start, keeping the pure-Go
// word-level kernels as the always-available fallback.
//
// Tiers:
//
//   - "avx2"   — amd64 with AVX2 and BMI2 (detected via CPUID + XGETBV,
//     no dependencies; the OS must have enabled YMM state). Every kernel
//     is vector code but the 32-bit bitshuffle pair.
//   - "neon"   — arm64; ASIMD is architecturally baseline. Only the kernels
//     the Go arm64 assembler can express are NEON (HistMerge, NextZero);
//     the rest of the tier, the bitshuffle kernels included, stays pure Go
//     per kernel.
//   - "purego" — the portable reference implementations. Always compiled,
//     always selectable, and the only tier under the `purego` build tag or
//     on other GOARCHes.
//
// Selection order: the FZMOD_KERNELS environment variable ("purego",
// "avx2", "neon", or "auto") is consulted once at init; an empty, unknown,
// or unsupported value falls back to auto-detection. Tests can re-point the
// tier at runtime with Use — kernels are plain package-level function
// variables, so Use must not race with kernel callers (call it from
// TestMain or a serial test only).
//
// Every non-purego kernel is bit-identical to its pure-Go twin on all
// inputs, including non-finite floats (QuantizeF32 reports out-of-range for
// NaN/Inf in every tier); the cross-implementation property and fuzz tests
// in this package enforce that on odd lengths and alignments.
package dispatch

import (
	"fmt"
	"os"
	"strings"
)

// Tier names accepted by Use and returned by Active.
const (
	PureGo = "purego"
	AVX2   = "avx2"
	NEON   = "neon"
)

// The dispatched kernels. Assigned once during package init (and by Use in
// tests); the default values make the package usable even if selection is
// bypassed.
var (
	// QuantizeF32 writes q[i] = int32(round(data[i]*scale)) for i <
	// len(data), rounding half away from zero (math.Round). It returns
	// false — with q partially written — when any rounded value falls
	// outside [-lim, lim]; NaN and ±Inf always fall outside. len(q) must
	// be >= len(data).
	QuantizeF32 func(data []float32, q []int32, scale, lim float64) bool = quantizeF32PureGo

	// DiffCodes1 emits the 1-D Lorenzo residual codes for a quantized row:
	// for each i < len(codes), d = q[i+1] - q[i] and codes[i] = uint16(d +
	// r32) when -r32 < d < r32, else 0 (the outlier escape). len(q) must
	// be >= len(codes)+1.
	DiffCodes1 func(q []int32, codes []uint16, r32 int32) = diffCodes1PureGo

	// DiffCodes2 is DiffCodes1 for the 2-D stencil:
	// d = q[i+1] - q[i] - up[i+1] + up[i].
	DiffCodes2 func(q, up []int32, codes []uint16, r32 int32) = diffCodes2PureGo

	// DiffCodes3 is DiffCodes1 for the full 3-D stencil:
	// d = q[i+1]-q[i] - up[i+1]+up[i] - back[i+1]+back[i] + backUp[i+1]-backUp[i].
	DiffCodes3 func(q, up, back, backUp []int32, codes []uint16, r32 int32) = diffCodes3PureGo

	// LorenzoRow reconstructs one row of a Lorenzo-coded field, inverting
	// the separable difference with running sums. For each i from 0 it
	// takes the residual d = int32(codes[i]) - r32, or at an escape
	// (codes[i] == 0) the next unused outlier value from vals, and does
	//
	//	acc += d; v := acc
	//	if len(above) > 0  { above[i] += v; v = above[i] }
	//	if len(behind) > 0 { behind[i] += v; v = behind[i] }
	//	out[i] = float32(float64(v) * scale)
	//
	// with wrapping int32 sums. It stops at an escape when vals is spent
	// and returns the new acc, the number of codes done (len(codes) when
	// it did not stop) and the number of vals used. acc is the x-scan
	// carried in from the left; above holds the y-scan of the row above
	// and behind the z-scan of the plane behind, each updated in place to
	// this row's. Empty accumulators are absent (rank 1 has neither, rank
	// 2 no behind); present ones and out must be at least len(codes) long.
	LorenzoRow func(codes []uint16, vals []int32, r32 int32, scale float64, acc int32, above, behind []int32, out []float32) (next int32, done, used int) = lorenzoRowPureGo

	// MinMaxF32 returns the minimum and maximum of a non-empty slice with
	// the comparison semantics of the scalar accumulator loop: NaN values
	// never replace an accumulator, and when -0.0 and +0.0 are both
	// candidates the result's sign is unspecified (they compare equal).
	MinMaxF32 func(data []float32) (mn, mx float32) = minMaxF32PureGo

	// HistAccum accumulates codes into the four privatized sub-tables of
	// tabs (len(tabs) == 4*bins, pre-zeroed by the caller) and returns
	// false — with tabs contents unspecified — when any code is >= bins.
	// The four sub-tables break the store-to-load dependency of repeated
	// increments to one bin; HistMerge folds them.
	HistAccum func(tabs []uint32, codes []uint16, bins int) bool = histAccumPureGo

	// HistMerge adds the four sub-tables of tabs into out:
	// out[i] += tabs[i] + tabs[b+i] + tabs[2b+i] + tabs[3b+i] with
	// b = len(out); len(tabs) must be 4*len(out).
	HistMerge func(out, tabs []uint32) = histMergePureGo

	// NextZero returns the index of the first zero code (the outlier
	// escape), or -1 when none occurs.
	NextZero func(codes []uint16) int = nextZeroPureGo

	// SumLengths sums lengths32[c] over every code c, the Huffman encode
	// sizing pre-pass. It returns ok=false when any code is out of range
	// or maps to a zero length (symbol absent from the codebook); the sum
	// is then unspecified and the caller re-scans scalar for the exact
	// offending symbol. Table entries must be at most 255 (they are
	// Huffman code lengths widened from uint8), which lets vector tiers
	// accumulate in 32-bit lanes.
	SumLengths func(lengths32 []uint32, codes []uint16) (bits uint64, ok bool) = sumLengthsPureGo

	// EmitCodes is the Huffman encode emitter's group loop. Each enc entry
	// packs a code as revCode<<8 | len, revCode the code's bits in stream
	// order (the first bit lowest), len at most 32 and revCode < 2^len. It
	// appends the entries of codes to a bit stream whose nbits < 8 pending
	// bits sit in acc (acc < 2^nbits), storing every byte it completes in
	// out in order, and returns the codes done, the bytes written (out's
	// first written bytes are final) and the pending bits after them. It
	// stores only inside out, but may write any byte of out[written:]. It
	// stops, never partway into a group of four codes, at the first group
	// holding a code outside enc (no tier loads an entry for such a code),
	// and when fewer than four codes or fewer than 32 bytes of out are
	// left; the caller finishes the rest code by code. Every tier stops at
	// the same point with the same state.
	EmitCodes func(enc []uint64, codes []uint16, out []byte, acc uint64, nbits uint) (done, written int, accOut uint64, nbitsOut uint) = emitCodesPureGo

	// Bitshuffle16 transposes vals into 16 bit-planes of
	// stride = (len(vals)+7)/8 bytes each: bit i%8 of dst[p*stride+i/8] is
	// bit p of the i-th value, and the pad bits of each plane's last byte
	// are zero. With a non-zero center the values are first recentred the
	// way the fzg encoder stores them, ZigZag16(v - center) (wrapping);
	// center 0 shuffles them as they are. len(dst) must be at least
	// 16*stride; every byte of that prefix is written.
	Bitshuffle16 func(dst []byte, vals []uint16, center uint16) = bitshuffle16PureGo

	// Unbitshuffle16 inverts Bitshuffle16 for len(dst) values and the
	// same center; len(src) must be at least 16*((len(dst)+7)/8). Pad bits
	// are ignored.
	Unbitshuffle16 func(dst []uint16, src []byte, center uint16) = unbitshuffle16PureGo

	// Bitshuffle32 is Bitshuffle16 for 32-bit values and 32 planes,
	// without recentring.
	Bitshuffle32 func(dst []byte, vals []uint32) = bitshuffle32PureGo

	// Unbitshuffle32 inverts Bitshuffle32.
	Unbitshuffle32 func(dst []uint32, src []byte) = unbitshuffle32PureGo
)

// EmitCodesScalar is EmitCodes' pure-Go twin, whatever the tier. The
// vector tier merges eight codes per flush; where most eight-code groups
// run past 56 bits it goes code by code and loses to the four-code scalar
// groups, so the Huffman encoder runs this on long-code chunks.
func EmitCodesScalar(enc []uint64, codes []uint16, out []byte, acc uint64, nbits uint) (done, written int, accOut uint64, nbitsOut uint) {
	return emitCodesPureGo(enc, codes, out, acc, nbits)
}

// active names the installed tier.
var active = PureGo

// vectorRows is set by tiers whose QuantizeF32 and DiffCodes kernels are
// genuinely vector implementations. The Lorenzo predictor only switches to
// its two-phase row structure (quantize the row, then emit codes from the
// stored lattice) when that structure buys vector speed; with scalar
// kernels the single-pass fused rows are faster.
var vectorRows bool

// VectorRows reports whether the installed tier runs the Lorenzo row
// kernels (QuantizeF32 + DiffCodes*) as vector code.
func VectorRows() bool { return vectorRows }

// Active returns the name of the installed implementation tier: "avx2",
// "neon", or "purego". A vector tier may still run individual kernels
// pure-Go; PerKernel lists the split.
func Active() string { return active }

// PerKernel returns the implementation behind each dispatched kernel for
// the installed tier, keyed by kernel name — execution evidence for
// ExecReport and benchmark rows.
func PerKernel() map[string]string { return perKernel() }

// pureGoKernels names every dispatched kernel, each on the reference
// implementation; a tier's perKernel overwrites the ones it vectorizes.
func pureGoKernels() map[string]string {
	return map[string]string{
		"quantize":     PureGo,
		"diff_codes":   PureGo,
		"lorenzo_row":  PureGo,
		"minmax":       PureGo,
		"hist_accum":   PureGo,
		"hist_merge":   PureGo,
		"next_zero":    PureGo,
		"sum_lengths":  PureGo,
		"emit_codes":   PureGo,
		"bitshuffle16": PureGo,
		"bitshuffle32": PureGo,
	}
}

// Tiers returns the implementation tiers this build supports on this CPU,
// purego first: {"purego"} or {"purego", "avx2"/"neon"}. Benchmarks
// iterate it (with Use) to report every implementation in one run.
func Tiers() []string {
	if best := bestName(); best != PureGo {
		return []string{PureGo, best}
	}
	return []string{PureGo}
}

// Use installs an implementation tier by name ("purego", "avx2", "neon",
// or "auto" for the best supported). It returns an error — leaving the
// installed tier unchanged — when the name is unknown or the tier is not
// supported on this CPU. Kernels are plain function variables: Use must
// not run concurrently with kernel callers.
func Use(name string) error {
	switch n := strings.ToLower(strings.TrimSpace(name)); n {
	case "auto", "":
		installPureGo()
		installBest()
		return nil
	case PureGo:
		installPureGo()
		active = PureGo
		return nil
	default:
		if installTier(n) {
			active = n
			return nil
		}
		return fmt.Errorf("dispatch: kernel tier %q not supported on this CPU (have %q)", name, bestName())
	}
}

// installPureGo points every kernel at its portable reference.
func installPureGo() {
	QuantizeF32 = quantizeF32PureGo
	DiffCodes1 = diffCodes1PureGo
	DiffCodes2 = diffCodes2PureGo
	DiffCodes3 = diffCodes3PureGo
	LorenzoRow = lorenzoRowPureGo
	MinMaxF32 = minMaxF32PureGo
	HistAccum = histAccumPureGo
	HistMerge = histMergePureGo
	NextZero = nextZeroPureGo
	SumLengths = sumLengthsPureGo
	EmitCodes = emitCodesPureGo
	Bitshuffle16 = bitshuffle16PureGo
	Unbitshuffle16 = unbitshuffle16PureGo
	Bitshuffle32 = bitshuffle32PureGo
	Unbitshuffle32 = unbitshuffle32PureGo
	vectorRows = false
	active = PureGo
}

// installBest installs the best tier the CPU supports (purego when no
// vector tier is available).
func installBest() {
	if name := bestName(); name != PureGo {
		if installTier(name) {
			active = name
		}
	}
}

func init() {
	installPureGo()
	if err := Use(os.Getenv("FZMOD_KERNELS")); err != nil {
		// Unknown or unsupported request: fall back to auto-detection
		// rather than failing init; Active()/PerKernel() report what ran.
		_ = Use("auto")
	}
}
