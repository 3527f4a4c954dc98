// Package preprocess implements the preprocessing stage of FZModules
// pipelines (§3.2): resolving the user-provided error bound against the
// data. The main decision at this stage is whether the bound is absolute or
// value-range relative; a relative bound requires a min/max reduction over
// the input so the bound can be normalized by the data range, which is the
// setting every compressor in the paper's evaluation uses ("all compressors
// used their value-range-based relative error bound setting").
package preprocess

import (
	"errors"
	"fmt"
	"math"

	"fzmod/internal/device"
	"fzmod/internal/kernels"
)

// BoundMode selects how the user's error bound is interpreted.
type BoundMode int

const (
	// Abs: the bound is an absolute error tolerance.
	Abs BoundMode = iota
	// Rel: the bound is relative to the data value range (max-min); the
	// effective absolute bound is bound*(max-min).
	Rel
)

// String returns "abs" or "rel".
func (m BoundMode) String() string {
	if m == Rel {
		return "rel"
	}
	return "abs"
}

// ErrorBound is a user-specified tolerance plus its interpretation mode.
type ErrorBound struct {
	Value float64
	Mode  BoundMode
}

// ErrBadBound marks an error bound that cannot be enforced: not finite and
// positive as given, or not finite once a relative bound is resolved.
var ErrBadBound = errors.New("preprocess: error bound must be finite and positive")

// Validate refuses a bound that cannot be enforced with an error wrapping
// ErrBadBound. NaN and ±Inf would otherwise reach the quantizer.
func (eb ErrorBound) Validate() error {
	if !(eb.Value > 0) || math.IsInf(eb.Value, 1) {
		return fmt.Errorf("%w, got %g", ErrBadBound, eb.Value)
	}
	return nil
}

// RelBound constructs a value-range-relative bound (the paper's setting).
func RelBound(v float64) ErrorBound { return ErrorBound{Value: v, Mode: Rel} }

// AbsBound constructs an absolute bound.
func AbsBound(v float64) ErrorBound { return ErrorBound{Value: v, Mode: Abs} }

// ParseBound returns the validated bound of value v in the named mode:
// "rel" or "" for value-range relative, "abs" for absolute. It is the one
// place a front end's bound mode is spelled; an unknown mode is an error,
// and a value Validate refuses is an error wrapping ErrBadBound.
func ParseBound(v float64, mode string) (ErrorBound, error) {
	var eb ErrorBound
	switch mode {
	case "", "rel":
		eb = RelBound(v)
	case "abs":
		eb = AbsBound(v)
	default:
		return ErrorBound{}, fmt.Errorf("mode %q: want rel or abs", mode)
	}
	if err := eb.Validate(); err != nil {
		return ErrorBound{}, err
	}
	return eb, nil
}

// Stats captures the extrema gathered during preprocessing; downstream
// modules reuse them (e.g. PSNR normalization).
type Stats struct {
	Min, Max float32
	Range    float64
}

// Resolve computes the effective absolute error bound for data, running the
// min/max reduction kernel at place when the mode is relative.
func Resolve(p *device.Platform, place device.Place, data []float32, eb ErrorBound) (float64, Stats, error) {
	if err := eb.Validate(); err != nil {
		return 0, Stats{}, err
	}
	if len(data) == 0 {
		return 0, Stats{}, errors.New("preprocess: empty input")
	}
	mn, mx := kernels.MinMaxF32(p, place, data)
	st := Stats{Min: mn, Max: mx, Range: float64(mx) - float64(mn)}
	if eb.Mode == Abs {
		return eb.Value, st, nil
	}
	r := st.Range
	if r == 0 {
		// Constant field: any positive absolute bound preserves it; use
		// the raw value so the quantizer still produces all-zero codes.
		r = 1
	}
	abs := eb.Value * r
	if math.IsInf(abs, 0) {
		return 0, st, fmt.Errorf("%w: relative bound %g over value range %g overflows", ErrBadBound, eb.Value, r)
	}
	return abs, st, nil
}
