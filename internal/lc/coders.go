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

// appendBitmapBody appends b compressed by zero-byte suppression,
// recursing on its own occupancy bitmap as long as that pays off
// ("compressed ... repeatedly with the same algorithm"). Layout: flag byte
// (0 = stored, 1 = recursive), then either the raw bytes or the encoded
// occupancy bitmap followed by the nonzero bytes. b sits at recursion
// level; its occupancy bitmap is built in sc.levels[level].
func appendBitmapBody(dst, b []byte, sc *scratch, level int) []byte {
	if len(b) >= 16 {
		sub, nz := sc.occupancy(b, level)
		if inner := bitmapBodySize(sub, sc, level+1); 1+inner+nz < 1+len(b) {
			dst = append(dst, 1)
			dst = appendBitmapBody(dst, sub, sc, level+1)
			for _, v := range b {
				if v != 0 {
					dst = append(dst, v)
				}
			}
			return dst
		}
	}
	dst = append(dst, 0)
	return append(dst, b...)
}

// bitmapBodySize returns the number of bytes appendBitmapBody appends for
// b without building them: it takes the same recursive decisions,
// materializing only each level's occupancy bitmap.
func bitmapBodySize(b []byte, sc *scratch, level int) int {
	if len(b) < 16 {
		return 1 + len(b)
	}
	sub, nz := sc.occupancy(b, level)
	if inner := bitmapBodySize(sub, sc, level+1); 1+inner+nz < 1+len(b) {
		return 1 + inner + nz
	}
	return 1 + len(b)
}

// occupancy builds the MSB-first bitmap of b's nonzero bytes in
// sc.levels[level] and returns it with their count.
func (sc *scratch) occupancy(b []byte, level int) ([]byte, int) {
	if level == len(sc.levels) {
		sc.levels = append(sc.levels, nil)
	}
	sub := resize(sc.levels[level], (len(b)+7)/8)
	sc.levels[level] = sub
	clear(sub)
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

func (rle) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	return mtf.AppendRLE1(dst, src), nil
}

// forwardSize scans runs with mtf.RLE1's rule: a run of 4..259 equal bytes
// becomes 4 copies plus a count byte, a shorter run stays literal.
func (rle) forwardSize(src []byte, _ *scratch) (int, error) {
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

func (rze) appendForward(dst, src []byte, sc *scratch) ([]byte, error) {
	n := len(src) / 4
	flags, nz := sc.nonzeroWords(src)
	dst = bitio.PutUvarint(dst, uint64(n))
	dst = bitio.PutUvarint(dst, uint64(len(src)-4*n))
	dst = appendBitmapBody(dst, flags, sc, 0)
	dst = slices.Grow(dst, 4*nz+len(src)-4*n)
	for i := 0; i < 4*n; i += 4 {
		if w := src[i : i+4]; binary.LittleEndian.Uint32(w) != 0 {
			dst = append(dst, w...)
		}
	}
	return append(dst, src[4*n:]...), nil
}

// forwardSize is the two uvarint header fields, the encoded occupancy
// bitmap, four bytes per nonzero word, and the ragged tail.
func (rze) forwardSize(src []byte, sc *scratch) (int, error) {
	n, tail := len(src)/4, len(src)%4
	flags, nz := sc.nonzeroWords(src)
	return uvarintLen(uint64(n)) + uvarintLen(uint64(tail)) + bitmapBodySize(flags, sc, 0) + 4*nz + tail, nil
}

// nonzeroWords builds the MSB-first occupancy bitmap of src's nonzero
// whole words in sc.flags and returns it with their count.
func (sc *scratch) nonzeroWords(src []byte) ([]byte, int) {
	n := len(src) / 4
	flags := resize(sc.flags, (n+7)/8)
	sc.flags = flags
	clear(flags)
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

// topCoder implements RARE and RAZE: a per-word flag (top k bits repeat
// the previous word's / are zero), the k-bit tops of unflagged words, and
// the (32-k)-bit bottoms of all words. k is chosen per block to minimize
// the pre-bitmap-compression size.
type topCoder struct {
	name string
	zero bool // RAZE: flag zero tops; RARE (false): flag repeated tops
}

func (t topCoder) Name() string { return t.name }

// plan fills sc.leads with the lead-bit count of each whole word of src
// (for RARE the number of leading bits equal to the previous word's, for
// RAZE the number of leading zero bits) and returns them with the k in
// 1..31 that minimizes the pre-bitmap-compression size. A word is flagged
// at k when its lead count is at least k.
func (t topCoder) plan(src []byte, sc *scratch) ([]uint8, int) {
	n := len(src) / 4
	leads := resize(sc.leads, n)
	sc.leads = leads
	var hist [33]int
	// A word's lead-bit count is that of w ^ (prev & mask): all ones
	// compares it with the previous word (RARE), zero with nothing (RAZE).
	mask, prev := ^uint32(0), uint32(0)
	if t.zero {
		mask = 0
	}
	for i := range leads {
		w := binary.LittleEndian.Uint32(src[4*i:])
		l := bits.LeadingZeros32(w ^ prev&mask)
		leads[i] = uint8(l)
		hist[l]++
		prev = w
	}
	// flagged(k) via suffix sums.
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

const (
	lowBytes = 0x0101010101010101 // 1 in every byte
	highBits = 0x8080808080808080 // the top bit of every byte
)

// load8 returns b[i:i+8] as a big-endian uint64, so b[i] is the top
// byte, zero-padded past the end of b.
func load8(b []byte, i int) uint64 {
	if i+8 <= len(b) {
		return binary.BigEndian.Uint64(b[i:])
	}
	var pad [8]byte
	copy(pad[:], b[i:])
	return binary.BigEndian.Uint64(pad[:])
}

// msbs gathers the top bit of each byte of x into one byte, the top
// byte's into bit 7: the multiply moves the bit of byte j to bit 56+j
// without collisions or carries.
func msbs(x uint64) byte { return byte((x & highBits) * 0x0002040810204081 >> 56) }

// flagBitmap packs one flag per word (lead count >= k), MSB-first, in
// sc.flags and counts the unflagged words.
func (sc *scratch) flagBitmap(leads []uint8, k int) ([]byte, int) {
	flags := resize(sc.flags, (len(leads)+7)/8)
	sc.flags = flags
	// Lead counts are at most 32 and 1 <= k <= 31, so l+0x80-k stays
	// within its byte and has its top bit set iff l >= k. Zero padding
	// past the last word is never flagged.
	add := uint64(0x80-k) * lowBytes
	flagged := 0
	for i := range flags {
		m := msbs(load8(leads, 8*i) + add)
		flags[i] = m
		flagged += bits.OnesCount8(m)
	}
	return flags, len(leads) - flagged
}

func (t topCoder) appendForward(dst, src []byte, sc *scratch) ([]byte, error) {
	n := len(src) / 4
	leads, k := t.plan(src, sc)
	flags, _ := sc.flagBitmap(leads, k)
	tops, bottoms := &sc.tops, &sc.bottoms
	tops.Reset()
	bottoms.Reset()
	kk := uint(k)
	for i, l := range leads {
		w := binary.LittleEndian.Uint32(src[4*i:])
		if int(l) < k {
			tops.WriteBits(uint64(w>>(32-kk)), kk)
		}
		bottoms.WriteBits(uint64(w)&(1<<(32-kk)-1), 32-kk)
	}
	dst = bitio.PutUvarint(dst, uint64(n))
	dst = bitio.PutUvarint(dst, uint64(len(src)-4*n))
	dst = append(dst, byte(k))
	dst = appendBitmapBody(dst, flags, sc, 0)
	tb := tops.Bytes()
	dst = bitio.PutUvarint(dst, uint64(len(tb)))
	dst = append(dst, tb...)
	dst = append(dst, bottoms.Bytes()...)
	return append(dst, src[4*n:]...), nil
}

// forwardSize counts what appendForward writes without writing a bit: the
// header (two uvarints and k), the encoded flag bitmap, the tops length
// and ceil(unflagged*k/8) tops bytes, ceil(n*(32-k)/8) bottoms bytes, and
// the ragged tail.
func (t topCoder) forwardSize(src []byte, sc *scratch) (int, error) {
	n, tail := len(src)/4, len(src)%4
	leads, k := t.plan(src, sc)
	flags, unflagged := sc.flagBitmap(leads, k)
	tops := (unflagged*k + 7) / 8
	bottoms := (n*(32-k) + 7) / 8
	return uvarintLen(uint64(n)) + uvarintLen(uint64(tail)) + 1 + bitmapBodySize(flags, sc, 0) +
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
	if t.zero {
		return 0
	}
	return prev >> (32 - uint(k))
}

// --- HUF ----------------------------------------------------------------------

// huf is a canonical byte-Huffman terminal coder with a stored-mode escape
// for incompressible input.
type huf struct{}

func (huf) Name() string { return "HUF" }

// plan builds src's byte histogram and, in sc, its code lengths, and
// returns the lengths with the size in bits of the coded body: the
// serialized length table plus sum(freq*len).
func (huf) plan(src []byte, sc *scratch) ([]uint8, int, error) {
	var freqs [256]int
	for _, b := range src {
		freqs[b]++
	}
	lengths, err := sc.lengths.Lengths(freqs[:], huffman.MaxBits)
	if err != nil {
		return nil, 0, err
	}
	nbits, err := huffman.LengthsBits(lengths)
	if err != nil {
		return nil, 0, err
	}
	for sym, f := range freqs {
		nbits += f * int(lengths[sym])
	}
	return lengths, nbits, nil
}

// appendForward writes the mode byte and length uvarint, then either the
// length table and code stream (mode 1) or, when the coded body would be
// no smaller than src, src itself (mode 0).
func (c huf) appendForward(dst, src []byte, sc *scratch) ([]byte, error) {
	lengths, nbits, err := c.plan(src, sc)
	if err != nil {
		return nil, err
	}
	if (nbits+7)/8 >= len(src) {
		dst = bitio.PutUvarint(append(dst, 0), uint64(len(src)))
		return append(dst, src...), nil
	}
	if err := sc.enc.Reset(lengths); err != nil {
		return nil, err
	}
	w := &sc.body
	w.Reset()
	if err := huffman.WriteLengths(w, lengths); err != nil {
		return nil, err
	}
	for _, b := range src {
		sc.enc.Encode(w, int(b))
	}
	dst = bitio.PutUvarint(append(dst, 1), uint64(len(src)))
	return append(dst, w.Bytes()...), nil
}

// forwardSize prices the code from the histogram alone: the mode byte and
// length uvarint, then the coded body's whole bytes or the stored copy
// when that is no larger (appendForward's escape rule).
func (c huf) forwardSize(src []byte, sc *scratch) (int, error) {
	_, nbits, err := c.plan(src, sc)
	if err != nil {
		return 0, err
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
