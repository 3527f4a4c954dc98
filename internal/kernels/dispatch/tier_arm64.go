//go:build arm64 && !purego

package dispatch

// The arm64 tier: ASIMD (NEON) is architecturally baseline on arm64, so
// there is no feature probe — but only the kernels the Go arm64 assembler
// can express cleanly run as vector code (it has no vector float min/max,
// signed vector compare, or widen/narrow mnemonics). The rest of the tier
// stays pure Go per kernel, and PerKernel reports the split.

func bestName() string { return NEON }

func installTier(name string) bool {
	if name != NEON {
		return false
	}
	installPureGo()
	HistMerge = histMergeNEON
	NextZero = nextZeroNEON
	return true
}

func perKernel() map[string]string {
	m := pureGoKernels()
	if active == NEON {
		m["hist_merge"] = NEON
		m["next_zero"] = NEON
	}
	return m
}
