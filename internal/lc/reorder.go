package lc

import (
	"fmt"

	"positbench/internal/bitio"
)

// Reorder components: size-preserving layout shuffles that group bits or
// bytes with similar statistics so a later coding stage can exploit them.

// bitT is the bit transpose ("bit shuffle"): plane 31 of every word first,
// then plane 30, ... down to plane 0. The middle stage of the paper's best
// posit pipeline.
type bitT struct{}

func (bitT) Name() string { return "BIT" }

func (bitT) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	n := len(src) / 4
	dst = bitio.PutUvarint(dst, uint64(n))
	dst = bitio.PutUvarint(dst, uint64(len(src)-4*n))
	if n == 0 {
		return append(dst, src...), nil
	}
	planeBytes := (n + 7) / 8
	out, planes := extend(dst, 32*planeBytes)
	for plane := 31; plane >= 0; plane-- {
		row := planes[(31-plane)*planeBytes : (32-plane)*planeBytes]
		// Bit plane of a little-endian word: bit plane%8 of byte plane/8.
		lane, sh := src[plane/8:], uint(plane%8)
		i := 0
		for ; i+8 <= n; i += 8 {
			w := lane[4*i : 4*i+29]
			row[i/8] = w[0]>>sh&1<<7 |
				w[4]>>sh&1<<6 |
				w[8]>>sh&1<<5 |
				w[12]>>sh&1<<4 |
				w[16]>>sh&1<<3 |
				w[20]>>sh&1<<2 |
				w[24]>>sh&1<<1 |
				w[28]>>sh&1
		}
		if i < n {
			var b byte
			for ; i < n; i++ {
				b |= lane[4*i] >> sh & 1 << (7 - uint(i)%8)
			}
			row[len(row)-1] = b
		}
	}
	return append(out, src[4*n:]...), nil
}

// forwardSize is the two uvarint header fields, 32 bit planes of
// ceil(n/8) bytes each, and the ragged tail.
func (bitT) forwardSize(src []byte, _ *scratch) (int, error) {
	n, tail := len(src)/4, len(src)%4
	return uvarintLen(uint64(n)) + uvarintLen(uint64(tail)) + 32*((n+7)/8) + tail, nil
}

func (bitT) Inverse(src []byte) ([]byte, error) {
	n64, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BIT: %w", err)
	}
	src = src[k:]
	tailLen, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BIT: %w", err)
	}
	src = src[k:]
	n := int(n64)
	planeBytes := (n + 7) / 8
	need := 32*planeBytes + int(tailLen)
	if len(src) != need {
		return nil, fmt.Errorf("lc/BIT: have %d bytes, need %d", len(src), need)
	}
	words := make([]uint32, n)
	for plane := 31; plane >= 0; plane-- {
		row := src[(31-plane)*planeBytes:]
		sh := uint(plane)
		for i := 0; i < n; i++ {
			bit := uint32(row[i/8]>>(7-uint(i)%8)) & 1
			words[i] |= bit << sh
		}
	}
	return joinWords(words, src[32*planeBytes:]), nil
}

// byteT is the byte transpose: byte plane 0 of every word, then plane 1,
// plane 2, plane 3 (the classic "shuffle" filter from HDF5/blosc).
type byteT struct{}

func (byteT) Name() string { return "BYTE" }

func (byteT) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	n := len(src) / 4
	dst = bitio.PutUvarint(dst, uint64(n))
	dst = bitio.PutUvarint(dst, uint64(len(src)-4*n))
	out, o := extend(dst, len(src))
	for plane := 0; plane < 4; plane++ {
		row := o[plane*n : (plane+1)*n]
		for i := range row {
			row[i] = src[4*i+plane]
		}
	}
	copyTail(o, src)
	return out, nil
}

// forwardSize is the two uvarint header fields, four byte planes of n
// bytes each, and the ragged tail.
func (byteT) forwardSize(src []byte, _ *scratch) (int, error) {
	n, tail := len(src)/4, len(src)%4
	return uvarintLen(uint64(n)) + uvarintLen(uint64(tail)) + 4*n + tail, nil
}

func (byteT) Inverse(src []byte) ([]byte, error) {
	n64, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BYTE: %w", err)
	}
	src = src[k:]
	tailLen, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BYTE: %w", err)
	}
	src = src[k:]
	n := int(n64)
	if len(src) != 4*n+int(tailLen) {
		return nil, fmt.Errorf("lc/BYTE: have %d bytes, need %d", len(src), 4*n+int(tailLen))
	}
	out := make([]byte, 4*n, 4*n+int(tailLen))
	for plane := 0; plane < 4; plane++ {
		for i := 0; i < n; i++ {
			out[4*i+plane] = src[plane*n+i]
		}
	}
	return append(out, src[4*n:]...), nil
}
