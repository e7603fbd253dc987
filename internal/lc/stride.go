package lc

import "encoding/binary"

// Stride-aware predictor components. Scientific arrays are often
// interleaved records or multidimensional grids, where the best predictor
// for a word is not its immediate neighbor but the word one record (or one
// row) back. A stride-4 delta turns such interleaving into near-zero
// residuals that the coder stages can exploit. These extend the component
// library beyond the stages named in the paper, in the spirit of LC's
// larger real library.

// diffStride emits per-lane two's-complement deltas with a fixed word
// stride: word i is predicted by word i-stride.
type diffStride struct {
	sameSize
	name   string
	stride int
}

func (d diffStride) Name() string { return d.name }

func (d diffStride) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	out, o := extend(dst, len(src))
	lag := 4 * d.stride
	for i := 0; i+4 <= len(src); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		if i >= lag {
			w -= binary.LittleEndian.Uint32(src[i-lag:])
		}
		binary.LittleEndian.PutUint32(o[i:], w)
	}
	copyTail(o, src)
	return out, nil
}

func (d diffStride) Inverse(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	n := len(words)
	for i := d.stride; i < n; i++ {
		words[i] += words[i-d.stride]
	}
	return joinWords(words, tail), nil
}

// xorStride is the carry-free variant: per-lane XOR against the word one
// stride back.
type xorStride struct {
	sameSize
	name   string
	stride int
}

func (x xorStride) Name() string { return x.name }

func (x xorStride) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	out, o := extend(dst, len(src))
	lag := 4 * x.stride
	for i := 0; i+4 <= len(src); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		if i >= lag {
			w ^= binary.LittleEndian.Uint32(src[i-lag:])
		}
		binary.LittleEndian.PutUint32(o[i:], w)
	}
	copyTail(o, src)
	return out, nil
}

func (x xorStride) Inverse(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	n := len(words)
	for i := x.stride; i < n; i++ {
		words[i] ^= words[i-x.stride]
	}
	return joinWords(words, tail), nil
}
