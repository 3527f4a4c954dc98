//go:build purego || (!amd64 && !arm64)

package dispatch

// Fallback tier plumbing: under the purego build tag, or on GOARCHes
// without a vector tier, only the portable reference kernels exist.

func bestName() string { return PureGo }

func installTier(string) bool { return false }

func perKernel() map[string]string { return pureGoKernels() }
