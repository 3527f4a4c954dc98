//go:build amd64 && !purego

package dispatch

// CPUID/XGETBV probes, implemented in cpuid_amd64.s. Hand-rolled rather
// than golang.org/x/sys/cpu so the module stays pure-stdlib.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports CPU and OS support for the AVX2 tier: the AVX2 and BMI2
// CPUID feature bits (EmitCodes shifts with SHLXQ/SHRXQ) plus OSXSAVE with
// XMM and YMM state enabled in XCR0 (without which the OS does not
// preserve the upper YMM halves across context switches).
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&0x6 != 0x6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2, bmi2 = 1 << 5, 1 << 8
	return ebx7&avx2 != 0 && ebx7&bmi2 != 0
}

func bestName() string {
	if hasAVX2() {
		return AVX2
	}
	return PureGo
}

// installTier installs the amd64 AVX2 tier: every dispatched kernel but the
// 32-bit bitshuffle pair (the PFPL baseline's, left on the reference) has a
// vector implementation here.
func installTier(name string) bool {
	if name != AVX2 || !hasAVX2() {
		return false
	}
	QuantizeF32 = quantizeF32AVX2
	DiffCodes1 = diffCodes1AVX2
	DiffCodes2 = diffCodes2AVX2
	DiffCodes3 = diffCodes3AVX2
	LorenzoRow = lorenzoRowAVX2
	MinMaxF32 = minMaxF32AVX2
	HistAccum = histAccumAVX2
	HistMerge = histMergeAVX2
	NextZero = nextZeroAVX2
	SumLengths = sumLengthsAVX2
	EmitCodes = emitCodesAVX2
	Bitshuffle16 = bitshuffle16AVX2
	Unbitshuffle16 = unbitshuffle16AVX2
	vectorRows = true
	return true
}

func perKernel() map[string]string {
	m := pureGoKernels()
	for k := range m {
		if k != "bitshuffle32" {
			m[k] = active
		}
	}
	return m
}
