// Package lc implements the LC compression-pipeline synthesis framework:
// a library of invertible data transformations ("components") that are
// composed into fixed-depth pipelines, plus an exhaustive parallel search
// that finds the best pipeline for an input or a corpus.
//
// Components interpret their input as little-endian 32-bit words where that
// matters (every stage named in the paper does), with any ragged tail bytes
// carried through verbatim, so arbitrary compositions stay lossless on
// arbitrary inputs.
package lc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"positbench/internal/bitio"
	"positbench/internal/huffman"
)

// Component is one invertible pipeline stage.
type Component interface {
	// Name is the stage identifier used in pipeline strings ("DIFFMS").
	Name() string
	// Inverse exactly undoes the forward transform.
	Inverse(src []byte) ([]byte, error)

	// appendForward appends the forward transform of src, which may have
	// any length, to dst, borrowing working memory from sc (nil for
	// stages that need none).
	appendForward(dst, src []byte, sc *scratch) ([]byte, error)
	// forwardSize returns the length appendForward would append, exactly,
	// without building the output. The search calls it for the terminal
	// stage, whose bytes would only be counted.
	forwardSize(src []byte, sc *scratch) (int, error)
}

// scratch is the working memory of the forward and size paths. The search
// takes one from scratchPool per stage-1 iteration and every transform and
// sizer it runs borrows from it, so a warm search allocates nothing per
// pipeline. A stage writes its output only to the dst it is given, never
// into the scratch's other buffers. A scratch serves one goroutine at a
// time.
type scratch struct {
	t1, t2  []byte       // intermediate stage outputs (search, Apply)
	flags   []byte       // RZE/RARE/RAZE per-word flag bitmap
	levels  [][]byte     // occupancy bitmap of each bitmap-recursion level
	leads   []uint8      // RARE/RAZE lead-bit count of each word
	tops    bitio.Writer // RARE/RAZE top bits of unflagged words
	bottoms bitio.Writer // RARE/RAZE bottom bits of every word
	body    bitio.Writer // HUF code stream
	lengths huffman.Builder
	enc     huffman.Encoder
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Components returns the full component library in canonical (ID) order.
// Index in this slice is the component's wire ID, so the order is part of
// the LC container format.
func Components() []Component {
	return []Component{
		nul{},                                // 0
		diff{},                               // 1
		diffMS{},                             // 2
		diffNB{},                             // 3
		xorDelta{},                           // 4
		bitT{},                               // 5
		byteT{},                              // 6
		rle{},                                // 7
		rze{},                                // 8
		topCoder{name: "RARE"},               // 9
		topCoder{name: "RAZE", zero: true},   // 10
		huf{},                                // 11
		diffStride{name: "DIFF4", stride: 4}, // 12
		xorStride{name: "XOR4", stride: 4},   // 13
	}
}

// nulID is NUL's wire ID (its index in Components).
const nulID = 0

// ByName returns the named component.
func ByName(name string) (Component, error) {
	for _, c := range Components() {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("lc: unknown component %q", name)
}

// splitWords views the word-aligned prefix of src as little-endian uint32s
// and returns the ragged tail separately.
func splitWords(src []byte) ([]uint32, []byte) {
	n := len(src) / 4
	words := make([]uint32, n)
	for i := 0; i < n; i++ {
		words[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
	return words, src[4*n:]
}

// joinWords serializes words little-endian and appends tail.
func joinWords(words []uint32, tail []byte) []byte {
	out := make([]byte, 4*len(words)+len(tail))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	copy(out[4*len(words):], tail)
	return out
}

// extend grows dst by n bytes and returns the result and its last n bytes,
// which hold garbage until the caller writes them.
func extend(dst []byte, n int) ([]byte, []byte) {
	out := slices.Grow(dst, n)[:len(dst)+n]
	return out, out[len(dst):]
}

// resize returns buf with length n, reusing its memory when it can. The
// contents are garbage.
func resize(buf []byte, n int) []byte { return slices.Grow(buf[:0], n)[:n] }

// uvarintLen is the encoded length of v as written by bitio.PutUvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// sameSize supplies the size method of the stages whose output is exactly
// as long as their input.
type sameSize struct{}

func (sameSize) forwardSize(src []byte, _ *scratch) (int, error) { return len(src), nil }

// nul is the identity stage; its presence in the library means the 3-stage
// search space contains every 1- and 2-stage pipeline as well.
type nul struct{ sameSize }

func (nul) Name() string                       { return "NUL" }
func (nul) Inverse(src []byte) ([]byte, error) { return append([]byte(nil), src...), nil }

func (nul) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	return append(dst, src...), nil
}
