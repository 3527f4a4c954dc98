package device

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Little-endian slice<->byte conversions: the wire form of every typed
// payload in a container, written with explicit encode/decode rather than
// unsafe casts to keep the package portable and race-detector friendly.

// F32Bytes converts a float32 slice to its little-endian byte representation.
func F32Bytes(src []float32) []byte {
	out := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// BytesF32 converts little-endian bytes to a float32 slice.
func BytesF32(src []byte) []float32 {
	n := len(src) / 4
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// ReadF32 fills dst with len(dst) little-endian float32 values read from
// r, staging through buf (any length ≥ 4; only whole 4-byte groups are
// used). Neither slice is retained, so both can come from a pool: the
// streaming compressor reads its chunks this way without allocating.
func ReadF32(r io.Reader, dst []float32, buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("device: staging buffer too small (%d bytes)", len(buf))
	}
	buf = buf[:len(buf)-len(buf)%4]
	for pos := 0; pos < len(dst); {
		want := (len(dst) - pos) * 4
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return err
		}
		for i := 0; i < want/4; i++ {
			dst[pos+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		pos += want / 4
	}
	return nil
}

// WriteF32 writes src as little-endian float32 bytes to w, staging through
// buf (any length ≥ 4). The mirror of ReadF32 for the decompression side.
func WriteF32(w io.Writer, src []float32, buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("device: staging buffer too small (%d bytes)", len(buf))
	}
	buf = buf[:len(buf)-len(buf)%4]
	for pos := 0; pos < len(src); {
		n := len(src) - pos
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(src[pos+i]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		pos += n
	}
	return nil
}

// U16Bytes converts a uint16 slice to little-endian bytes.
func U16Bytes(src []uint16) []byte {
	out := make([]byte, 2*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint16(out[2*i:], v)
	}
	return out
}

// BytesU16 converts little-endian bytes to a uint16 slice.
func BytesU16(src []byte) []uint16 {
	n := len(src) / 2
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(src[2*i:])
	}
	return out
}

// U32Bytes converts a uint32 slice to little-endian bytes.
func U32Bytes(src []uint32) []byte {
	out := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// BytesU32 converts little-endian bytes to a uint32 slice.
func BytesU32(src []byte) []uint32 {
	n := len(src) / 4
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
	return out
}
