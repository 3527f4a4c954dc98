package preprocess

import (
	"errors"
	"math"
	"testing"

	"fzmod/internal/device"
)

var tp = device.NewTestPlatform()

func TestResolveAbs(t *testing.T) {
	data := []float32{-2, 0, 6}
	eb, st, err := Resolve(tp, device.Accel, data, AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if eb != 1e-3 {
		t.Errorf("abs eb = %v, want 1e-3", eb)
	}
	if st.Min != -2 || st.Max != 6 || st.Range != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestResolveRel(t *testing.T) {
	data := []float32{-2, 0, 6} // range 8
	eb, _, err := Resolve(tp, device.Accel, data, RelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if eb != 8e-2 {
		t.Errorf("rel eb = %v, want 0.08", eb)
	}
}

func TestResolveConstantField(t *testing.T) {
	data := []float32{5, 5, 5}
	eb, _, err := Resolve(tp, device.Accel, data, RelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if eb != 1e-2 {
		t.Errorf("constant-field rel eb = %v, want raw value", eb)
	}
}

func TestResolveErrors(t *testing.T) {
	if _, _, err := Resolve(tp, device.Accel, []float32{1}, AbsBound(0)); err == nil {
		t.Error("zero bound should fail")
	}
	if _, _, err := Resolve(tp, device.Accel, []float32{1}, AbsBound(-1)); err == nil {
		t.Error("negative bound should fail")
	}
	if _, _, err := Resolve(tp, device.Accel, nil, AbsBound(1)); err == nil {
		t.Error("empty input should fail")
	}
}

func TestBoundModeString(t *testing.T) {
	if Abs.String() != "abs" || Rel.String() != "rel" {
		t.Error("BoundMode.String mismatch")
	}
}

// TestParseBound: the one spelling of a bound mode, shared by the CLI and
// the daemon. An unknown mode is an error; a value that cannot be enforced
// is an error wrapping ErrBadBound.
func TestParseBound(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		mode string
		want ErrorBound
	}{
		{1e-3, "", RelBound(1e-3)},
		{1e-3, "rel", RelBound(1e-3)},
		{2.5, "abs", AbsBound(2.5)},
	} {
		if got, err := ParseBound(tc.v, tc.mode); err != nil || got != tc.want {
			t.Errorf("ParseBound(%g, %q) = %+v, %v; want %+v", tc.v, tc.mode, got, err, tc.want)
		}
	}
	if _, err := ParseBound(1e-3, "wat"); err == nil || errors.Is(err, ErrBadBound) {
		t.Errorf("unknown mode: error %v, want a mode error", err)
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ParseBound(v, "abs"); !errors.Is(err, ErrBadBound) {
			t.Errorf("ParseBound(%g, abs): error %v, want one wrapping ErrBadBound", v, err)
		}
	}
}
