package lc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/huffman"
	"positbench/internal/mtf"
)

// LimitedInverter is implemented by components whose Inverse can allocate
// output much larger than its input (the word counts in RZE/RARE/RAZE/HUF
// headers and RLE runs are attacker-controlled). InverseLimit must return
// compress.ErrLimitExceeded before materializing output beyond maxOut bytes;
// maxOut <= 0 means unbounded.
type LimitedInverter interface {
	InverseLimit(src []byte, maxOut int) ([]byte, error)
}

// checkDeclaredWords validates output sizes declared in a stage header
// (nWords words of four bytes plus tailLen ragged bytes) against the stage's
// output cap. Counts beyond 2^56 are rejected outright so the size math
// cannot overflow.
func checkDeclaredWords(stage string, nWords, tailLen uint64, maxOut int) error {
	const absurd = uint64(1) << 56
	if nWords > absurd || tailLen > absurd {
		return compress.Errorf(compress.ErrCorrupt, "lc/%s: absurd declared size (%d words, %d tail)", stage, nWords, tailLen)
	}
	if maxOut > 0 && nWords*4+tailLen > uint64(maxOut) {
		return compress.Errorf(compress.ErrLimitExceeded, "lc/%s: declared output %d exceeds cap %d", stage, nWords*4+tailLen, maxOut)
	}
	return nil
}

// Coder components: size-reducing stages. RZE/RARE/RAZE implement the
// zero/repeat suppression schemes the paper describes, including the
// recursively self-compressed bitmaps.

// --- recursive bitmap codec -------------------------------------------------

// encodeBitmapBody compresses b by zero-byte suppression, recursing on its
// own occupancy bitmap as long as that pays off ("compressed ... repeatedly
// with the same algorithm"). Layout: flag byte (0 = stored, 1 = recursive),
// then either the raw bytes or the encoded occupancy bitmap followed by the
// nonzero bytes.
func encodeBitmapBody(b []byte) []byte {
	if len(b) < 16 {
		return append([]byte{0}, b...)
	}
	sub, nz := occupancy(b)
	inner := encodeBitmapBody(sub)
	if 1+len(inner)+nz < 1+len(b) {
		out := make([]byte, 0, 1+len(inner)+nz)
		out = append(out, 1)
		out = append(out, inner...)
		for _, v := range b {
			if v != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	return append([]byte{0}, b...)
}

// bitmapBodySize returns len(encodeBitmapBody(b)) without building it: it
// takes the same recursive decisions, materializing only each level's
// occupancy bitmap.
func bitmapBodySize(b []byte) int {
	if len(b) < 16 {
		return 1 + len(b)
	}
	sub, nz := occupancy(b)
	if inner := bitmapBodySize(sub); 1+inner+nz < 1+len(b) {
		return 1 + inner + nz
	}
	return 1 + len(b)
}

// occupancy returns the MSB-first bitmap of b's nonzero bytes and their
// count.
func occupancy(b []byte) ([]byte, int) {
	sub := make([]byte, (len(b)+7)/8)
	nz := 0
	for i, v := range b {
		if v != 0 {
			sub[i/8] |= 1 << (7 - i%8)
			nz++
		}
	}
	return sub, nz
}

// decodeBitmapBody reconstructs n bytes, returning them and the number of
// encoded bytes consumed.
func decodeBitmapBody(src []byte, n int) ([]byte, int, error) {
	if len(src) < 1 {
		return nil, 0, compress.Errorf(compress.ErrTruncated, "lc: truncated bitmap")
	}
	flag := src[0]
	switch flag {
	case 0:
		if len(src) < 1+n {
			return nil, 0, compress.Errorf(compress.ErrTruncated, "lc: truncated stored bitmap")
		}
		return src[1 : 1+n], 1 + n, nil
	case 1:
		subLen := (n + 7) / 8
		sub, used, err := decodeBitmapBody(src[1:], subLen)
		if err != nil {
			return nil, 0, err
		}
		pos := 1 + used
		out := make([]byte, n)
		for i := 0; i < n; i++ {
			if sub[i/8]>>(7-i%8)&1 == 1 {
				if pos >= len(src) {
					return nil, 0, compress.Errorf(compress.ErrTruncated, "lc: truncated bitmap payload")
				}
				out[i] = src[pos]
				pos++
			}
		}
		return out, pos, nil
	default:
		return nil, 0, compress.Errorf(compress.ErrCorrupt, "lc: bad bitmap flag %d", flag)
	}
}

// --- RLE ---------------------------------------------------------------------

// rle is byte-level run-length coding (the RLE1 scheme shared with the
// bzip2-class codec).
type rle struct{}

func (rle) Name() string { return "RLE" }

func (rle) Forward(src []byte) ([]byte, error) { return mtf.RLE1(src), nil }

// ForwardSize scans runs with mtf.RLE1's rule: a run of 4..259 equal bytes
// becomes 4 copies plus a count byte, a shorter run stays literal.
func (rle) ForwardSize(src []byte) (int, error) {
	size := 0
	for i := 0; i < len(src); {
		b := src[i]
		run := 1
		for i+run < len(src) && src[i+run] == b && run < 259 {
			run++
		}
		if run >= 4 {
			size += 5
		} else {
			size += run
		}
		i += run
	}
	return size, nil
}

func (rle) Inverse(src []byte) ([]byte, error) { return mtf.UnRLE1(src) }

func (rle) InverseLimit(src []byte, maxOut int) ([]byte, error) {
	return mtf.UnRLE1Limit(src, maxOut)
}

// --- RZE ---------------------------------------------------------------------

// rze suppresses all-zero words: a recursively compressed occupancy bitmap
// plus the nonzero words. "Similar to RAZE, except it operates on all bits
// of each word."
type rze struct{}

func (rze) Name() string { return "RZE" }

func (rze) Forward(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	flags, nz := nonzeroWords(src)
	out := bitio.PutUvarint(nil, uint64(len(words)))
	out = bitio.PutUvarint(out, uint64(len(tail)))
	out = append(out, encodeBitmapBody(flags)...)
	out = slices.Grow(out, 4*nz+len(tail))
	for _, w := range words {
		if w != 0 {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
	}
	return append(out, tail...), nil
}

// ForwardSize is the two uvarint header fields, the encoded occupancy
// bitmap, four bytes per nonzero word, and the ragged tail.
func (rze) ForwardSize(src []byte) (int, error) {
	n, tail := len(src)/4, len(src)%4
	flags, nz := nonzeroWords(src)
	return uvarintLen(uint64(n)) + uvarintLen(uint64(tail)) + bitmapBodySize(flags) + 4*nz + tail, nil
}

// nonzeroWords returns the MSB-first occupancy bitmap of src's nonzero
// whole words and their count.
func nonzeroWords(src []byte) ([]byte, int) {
	n := len(src) / 4
	flags := make([]byte, (n+7)/8)
	nz := 0
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint32(src[4*i:]) != 0 {
			flags[i/8] |= 1 << (7 - i%8)
			nz++
		}
	}
	return flags, nz
}

func (rze) Inverse(src []byte) ([]byte, error) { return rze{}.InverseLimit(src, 0) }

func (rze) InverseLimit(src []byte, maxOut int) ([]byte, error) {
	n64, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/RZE: %w", err)
	}
	src = src[k:]
	tailLen, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/RZE: %w", err)
	}
	src = src[k:]
	// An all-zero occupancy bitmap compresses recursively to a few bytes, so
	// a tiny input can declare an enormous word count; bound it before the
	// bitmap (and the word slice) are allocated.
	if err := checkDeclaredWords("RZE", n64, tailLen, maxOut); err != nil {
		return nil, err
	}
	n := int(n64)
	bm, used, err := decodeBitmapBody(src, (n+7)/8)
	if err != nil {
		return nil, fmt.Errorf("lc/RZE: %w", err)
	}
	src = src[used:]
	words := make([]uint32, n)
	pos := 0
	for i := 0; i < n; i++ {
		if bm[i/8]>>(7-i%8)&1 == 1 {
			if pos+4 > len(src) {
				return nil, compress.Errorf(compress.ErrTruncated, "lc/RZE: truncated words")
			}
			words[i] = uint32(src[pos]) | uint32(src[pos+1])<<8 | uint32(src[pos+2])<<16 | uint32(src[pos+3])<<24
			pos += 4
		}
	}
	if len(src)-pos != int(tailLen) {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/RZE: tail mismatch")
	}
	return joinWords(words, src[pos:]), nil
}

// --- RARE / RAZE ---------------------------------------------------------------

// topCoder implements the shared structure of RARE and RAZE: a per-word
// flag (top k bits repeat / are zero), the k-bit tops of unflagged words,
// and the (32-k)-bit bottoms of all words. k is chosen per block to
// minimize the pre-bitmap-compression size.
type topCoder struct {
	name string
	// flagged reports, per word, the leading-bit count that makes the word
	// flaggable at a given k: for RARE the number of leading bits equal to
	// the previous word's, for RAZE the number of leading zero bits.
	leadBits func(w, prev uint32) int
}

func (t topCoder) Name() string { return t.name }

// plan returns the lead-bit count of each whole word of src and the k in
// 1..31 that minimizes the pre-bitmap-compression size. A word is flagged
// at k when its lead count is at least k.
func (t topCoder) plan(src []byte) ([]uint8, int) {
	n := len(src) / 4
	leads := make([]uint8, n)
	// Histogram of lead-bit counts -> flagged(k) via suffix sums.
	var hist [33]int
	prev := uint32(0)
	for i := range leads {
		w := binary.LittleEndian.Uint32(src[4*i:])
		l := t.leadBits(w, prev)
		leads[i] = uint8(l)
		hist[l]++
		prev = w
	}
	bestK, bestCost := 1, int64(1)<<62
	flaggedAtLeast := 0
	for k := 32; k >= 1; k-- {
		flaggedAtLeast += hist[k]
		if k > 31 {
			continue
		}
		// bits: bitmap n + tops (n-flagged)*k + bottoms n*(32-k)
		cost := int64(n) + int64(n-flaggedAtLeast)*int64(k) + int64(n)*int64(32-k)
		if cost < bestCost {
			bestCost, bestK = cost, k
		}
	}
	return leads, bestK
}

// flagBitmap packs one flag per word, MSB-first, and counts the unflagged
// words.
func flagBitmap(leads []uint8, k int) ([]byte, int) {
	flags := make([]byte, (len(leads)+7)/8)
	unflagged := 0
	for i, l := range leads {
		if int(l) >= k {
			flags[i/8] |= 1 << (7 - i%8)
		} else {
			unflagged++
		}
	}
	return flags, unflagged
}

func (t topCoder) Forward(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	n := len(words)
	leads, k := t.plan(src)
	flags, unflagged := flagBitmap(leads, k)
	tops := bitio.NewWriter(unflagged*k/8 + 8)
	bottoms := bitio.NewWriter(n*4 + 8)
	for i, w := range words {
		if int(leads[i]) < k {
			tops.WriteBits(uint64(w>>(32-uint(k))), uint(k))
		}
		bottoms.WriteBits(uint64(w)&(1<<(32-uint(k))-1), 32-uint(k))
	}
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(tail)))
	out = append(out, byte(k))
	out = append(out, encodeBitmapBody(flags)...)
	tb := tops.Bytes()
	out = bitio.PutUvarint(out, uint64(len(tb)))
	out = append(out, tb...)
	out = append(out, bottoms.Bytes()...)
	return append(out, tail...), nil
}

// ForwardSize counts what Forward writes without writing a bit: the
// header (two uvarints and k), the encoded flag bitmap, the tops length
// and ceil(unflagged*k/8) tops bytes, ceil(n*(32-k)/8) bottoms bytes, and
// the ragged tail.
func (t topCoder) ForwardSize(src []byte) (int, error) {
	n, tail := len(src)/4, len(src)%4
	leads, k := t.plan(src)
	flags, unflagged := flagBitmap(leads, k)
	tops := (unflagged*k + 7) / 8
	bottoms := (n*(32-k) + 7) / 8
	return uvarintLen(uint64(n)) + uvarintLen(uint64(tail)) + 1 + bitmapBodySize(flags) +
		uvarintLen(uint64(tops)) + tops + bottoms + tail, nil
}

func (t topCoder) Inverse(src []byte) ([]byte, error) { return t.InverseLimit(src, 0) }

func (t topCoder) InverseLimit(src []byte, maxOut int) ([]byte, error) {
	n64, used, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	tailLen64, used, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	if len(src) < 1 {
		return nil, compress.Errorf(compress.ErrTruncated, "lc/%s: missing k", t.name)
	}
	k := int(src[0])
	src = src[1:]
	if k < 1 || k > 31 {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/%s: bad k=%d", t.name, k)
	}
	if err := checkDeclaredWords(t.name, n64, tailLen64, maxOut); err != nil {
		return nil, err
	}
	n := int(n64)
	bm, used, err := decodeBitmapBody(src, (n+7)/8)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	topsLen64, used, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	topsLen := int(topsLen64)
	if topsLen64 > uint64(len(src)) {
		return nil, compress.Errorf(compress.ErrTruncated, "lc/%s: truncated tops", t.name)
	}
	tops := bitio.NewReader(src[:topsLen])
	src = src[topsLen:]
	bottomBytes := (n*(32-k) + 7) / 8
	if len(src) != bottomBytes+int(tailLen64) {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/%s: have %d bytes, need %d", t.name, len(src), bottomBytes+int(tailLen64))
	}
	bottoms := bitio.NewReader(src[:bottomBytes])
	words := make([]uint32, n)
	prev := uint32(0)
	for i := 0; i < n; i++ {
		var top uint32
		if bm[i/8]>>(7-i%8)&1 == 1 {
			top = t.flaggedTop(prev, k)
		} else {
			v, err := tops.ReadBits(uint(k))
			if err != nil {
				return nil, fmt.Errorf("lc/%s: tops: %w", t.name, err)
			}
			top = uint32(v)
		}
		bot, err := bottoms.ReadBits(32 - uint(k))
		if err != nil {
			return nil, fmt.Errorf("lc/%s: bottoms: %w", t.name, err)
		}
		w := top<<(32-uint(k)) | uint32(bot)
		words[i] = w
		prev = w
	}
	return joinWords(words, src[bottomBytes:]), nil
}

// flaggedTop reconstructs the implied top bits of a flagged word.
func (t topCoder) flaggedTop(prev uint32, k int) uint32 {
	if t.name == "RAZE" {
		return 0
	}
	return prev >> (32 - uint(k))
}

// rare flags words whose top k bits repeat the previous word's.
type rare struct{ topCoder }

func newRARE() rare {
	return rare{topCoder{
		name: "RARE",
		leadBits: func(w, prev uint32) int {
			return bits.LeadingZeros32(w ^ prev)
		},
	}}
}

// raze flags words whose top k bits are zero.
type raze struct{ topCoder }

func newRAZE() raze {
	return raze{topCoder{
		name: "RAZE",
		leadBits: func(w, prev uint32) int {
			return bits.LeadingZeros32(w)
		},
	}}
}

// --- HUF ----------------------------------------------------------------------

// huf is a canonical byte-Huffman terminal coder with a stored-mode escape
// for incompressible input.
type huf struct{}

func (huf) Name() string { return "HUF" }

// byteCode returns src's byte histogram and its code lengths.
func byteCode(src []byte) ([]int, []uint8, error) {
	freqs := make([]int, 256)
	for _, b := range src {
		freqs[b]++
	}
	lengths, err := huffman.BuildLengths(freqs, huffman.MaxBits)
	return freqs, lengths, err
}

func (huf) Forward(src []byte) ([]byte, error) {
	_, lengths, err := byteCode(src)
	if err != nil {
		return nil, err
	}
	enc, err := huffman.NewEncoder(lengths)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(src)/2 + 160)
	if err := huffman.WriteLengths(w, lengths); err != nil {
		return nil, err
	}
	for _, b := range src {
		enc.Encode(w, int(b))
	}
	body := w.Bytes()
	if len(body) >= len(src) {
		out := append(bitio.PutUvarint([]byte{0}, uint64(len(src))), src...)
		return out, nil
	}
	return append(bitio.PutUvarint([]byte{1}, uint64(len(src))), body...), nil
}

// ForwardSize prices the code from the histogram alone: the mode byte and
// length uvarint, then the serialized length table plus sum(freq*len)
// bits rounded up to whole bytes, or the stored copy when that is no
// smaller (Forward's escape rule).
func (huf) ForwardSize(src []byte) (int, error) {
	freqs, lengths, err := byteCode(src)
	if err != nil {
		return 0, err
	}
	nbits, err := huffman.LengthsBits(lengths)
	if err != nil {
		return 0, err
	}
	for sym, f := range freqs {
		nbits += f * int(lengths[sym])
	}
	body := min((nbits+7)/8, len(src))
	return 1 + uvarintLen(uint64(len(src))) + body, nil
}

func (huf) Inverse(src []byte) ([]byte, error) { return huf{}.InverseLimit(src, 0) }

func (huf) InverseLimit(src []byte, maxOut int) ([]byte, error) {
	if len(src) < 1 {
		return nil, compress.Errorf(compress.ErrTruncated, "lc/HUF: empty input")
	}
	mode := src[0]
	n64, used, err := bitio.Uvarint(src[1:])
	if err != nil {
		return nil, fmt.Errorf("lc/HUF: %w", err)
	}
	src = src[1+used:]
	// Every coded symbol costs at least one bit, so an honest n never
	// exceeds 8x the remaining input; checking it (and the cap) before the
	// output allocation keeps a tampered count from forcing a huge make.
	if n64 > uint64(len(src))*8 {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/HUF: declared length %d exceeds 8x input", n64)
	}
	if maxOut > 0 && n64 > uint64(maxOut) {
		return nil, compress.Errorf(compress.ErrLimitExceeded, "lc/HUF: declared length %d exceeds cap %d", n64, maxOut)
	}
	n := int(n64)
	switch mode {
	case 0:
		if len(src) != n {
			return nil, compress.Errorf(compress.ErrCorrupt, "lc/HUF: stored length mismatch")
		}
		return append([]byte(nil), src...), nil
	case 1:
		r := bitio.NewReader(src)
		lengths, err := huffman.ReadLengths(r, 256)
		if err != nil {
			return nil, fmt.Errorf("lc/HUF: %w", err)
		}
		dec, err := huffman.NewDecoder(lengths)
		if err != nil {
			return nil, fmt.Errorf("lc/HUF: %w", err)
		}
		out := make([]byte, n)
		for i := range out {
			s, err := dec.Decode(r)
			if err != nil {
				return nil, fmt.Errorf("lc/HUF: %w", err)
			}
			out[i] = byte(s)
		}
		return out, nil
	default:
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/HUF: bad mode %d", mode)
	}
}
