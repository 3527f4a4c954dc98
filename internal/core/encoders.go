package core

import (
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/encoder/fzg"
	"fzmod/internal/encoder/huffman"
	"fzmod/internal/encoder/lzr"
	"fzmod/internal/histogram"
)

// HistKind selects which data-analysis module feeds the Huffman encoder
// (§3.2: standard histogram vs the top-k variant).
type HistKind int

const (
	// HistStandard is the privatized exact histogram.
	HistStandard HistKind = iota
	// HistTopK is the two-pass top-k histogram, preferable for the spiky
	// code distributions high-quality predictors produce.
	HistTopK
)

// HuffmanEncoder is the Huffman primary encoder module. Following
// FZMod-Default's hybrid design, the histogram runs at the accelerator
// place while the Huffman coding itself runs at the pipeline's encoder
// place — the presets put it on the host ("CPU-based Huffman encoding due
// to low GPU performance of Huffman encoders", §3.3), but the module honors
// whatever place the pipeline assigns, which the place ablation exercises.
type HuffmanEncoder struct {
	Hist HistKind
	// TopK bounds the exact-count set when Hist == HistTopK (0 = default).
	TopK int
}

// Name implements CodesEncoder.
func (h HuffmanEncoder) Name() string {
	if h.Hist == HistTopK {
		return "huffman-topk"
	}
	return "huffman"
}

// EncodeCodes implements CodesEncoder: histogram at the accelerator,
// entropy coding at the given place.
func (h HuffmanEncoder) EncodeCodes(p *device.Platform, place device.Place, codes []uint16, radius int) ([]byte, error) {
	bins := 2 * radius
	if bins <= 0 {
		return nil, fmt.Errorf("core: huffman needs positive radius, got %d", radius)
	}
	// The histogram is the GPU-accelerated analysis stage regardless of
	// where the entropy coding itself runs (§3.2).
	var hist []uint32
	var err error
	switch h.Hist {
	case HistTopK:
		hist, err = histogram.TopK(p, device.Accel, codes, bins, h.TopK)
	default:
		hist, err = histogram.Standard(p, device.Accel, codes, bins)
	}
	if err != nil {
		return nil, err
	}
	if len(codes) == 0 {
		hist[0] = 1 // codec requires a non-empty alphabet
	}
	return huffman.Compress(p, place, codes, hist)
}

// DecodeCodes implements CodesEncoder.
func (HuffmanEncoder) DecodeCodes(p *device.Platform, place device.Place, blob []byte, dst []uint16) error {
	_, err := huffman.DecompressInto(p, place, blob, dst)
	return err
}

// FZGEncoder is the FZ-GPU bitshuffle+dictionary primary encoder module —
// the throughput play of FZMod-Speed. It runs entirely at the accelerator
// place.
type FZGEncoder struct{}

// Name implements CodesEncoder.
func (FZGEncoder) Name() string { return "fzg" }

// EncodeCodes implements CodesEncoder. The quantizer radius is the
// recentering pivot (see package fzg).
func (FZGEncoder) EncodeCodes(p *device.Platform, place device.Place, codes []uint16, radius int) ([]byte, error) {
	return fzg.Encode(p, place, codes, radius), nil
}

// DecodeCodes implements CodesEncoder.
func (FZGEncoder) DecodeCodes(p *device.Platform, place device.Place, blob []byte, dst []uint16) error {
	_, err := fzg.DecodeInto(p, place, blob, dst)
	return err
}

// LZSecondary is the zstd-slot secondary encoder backed by the lzr module.
type LZSecondary struct{}

// Name implements Secondary.
func (LZSecondary) Name() string { return "lz" }

// Compress implements Secondary.
func (LZSecondary) Compress(p *device.Platform, place device.Place, data []byte) ([]byte, error) {
	return lzr.Compress(p, place, data), nil
}

// Decompress implements Secondary.
func (LZSecondary) Decompress(p *device.Platform, place device.Place, blob []byte) ([]byte, error) {
	return lzr.Decompress(p, place, blob)
}
