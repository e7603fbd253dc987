package lc

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
	name   string
	stride int
}

func (d diffStride) Name() string { return d.name }

func (diffStride) ForwardSize(src []byte) (int, error) { return len(src), nil }

func (d diffStride) Forward(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	n := len(words)
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		if i >= d.stride {
			out[i] = words[i] - words[i-d.stride]
		} else {
			out[i] = words[i]
		}
	}
	return joinWords(out, tail), nil
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
	name   string
	stride int
}

func (x xorStride) Name() string { return x.name }

func (xorStride) ForwardSize(src []byte) (int, error) { return len(src), nil }

func (x xorStride) Forward(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	n := len(words)
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		if i >= x.stride {
			out[i] = words[i] ^ words[i-x.stride]
		} else {
			out[i] = words[i]
		}
	}
	return joinWords(out, tail), nil
}

func (x xorStride) Inverse(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	n := len(words)
	for i := x.stride; i < n; i++ {
		words[i] ^= words[i-x.stride]
	}
	return joinWords(words, tail), nil
}
