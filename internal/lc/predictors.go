package lc

import "encoding/binary"

// Predictor components: same-length word transforms that turn value
// correlation between neighbors into small (or sparse) residuals. Their
// output is always exactly as long as their input.

// diff emits the two's-complement difference sequence ("delta modulation").
type diff struct{ sameSize }

func (diff) Name() string { return "DIFF" }

func (diff) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	out, o := extend(dst, len(src))
	prev := uint32(0)
	for i := 0; i+4 <= len(src); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		binary.LittleEndian.PutUint32(o[i:], w-prev)
		prev = w
	}
	copyTail(o, src)
	return out, nil
}

func (diff) Inverse(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	acc := uint32(0)
	for i, d := range words {
		acc += d
		words[i] = acc
	}
	return joinWords(words, tail), nil
}

// diffMS emits differences in magnitude-sign (zigzag) form: small positive
// and negative deltas both map to values with many leading zero bits.
// This is the first stage of the paper's best float pipeline.
type diffMS struct{ sameSize }

func (diffMS) Name() string { return "DIFFMS" }

func zigzag(d uint32) uint32   { return d<<1 ^ uint32(int32(d)>>31) }
func unzigzag(z uint32) uint32 { return z>>1 ^ -(z & 1) }

func (diffMS) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	out, o := extend(dst, len(src))
	prev := uint32(0)
	for i := 0; i+4 <= len(src); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		binary.LittleEndian.PutUint32(o[i:], zigzag(w-prev))
		prev = w
	}
	copyTail(o, src)
	return out, nil
}

func (diffMS) Inverse(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	acc := uint32(0)
	for i, z := range words {
		acc += unzigzag(z)
		words[i] = acc
	}
	return joinWords(words, tail), nil
}

// diffNB emits differences in negabinary (base -2) form, the first stage of
// the paper's best posit pipeline. Negabinary also maps small-magnitude
// deltas to small codes but distributes sign information across the bits,
// which interacts well with bit-plane transposition.
type diffNB struct{ sameSize }

func (diffNB) Name() string { return "DIFFNB" }

const nbMask = 0xAAAAAAAA

func toNegabinary(x uint32) uint32   { return (x + nbMask) ^ nbMask }
func fromNegabinary(n uint32) uint32 { return (n ^ nbMask) - nbMask }

func (diffNB) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	out, o := extend(dst, len(src))
	prev := uint32(0)
	for i := 0; i+4 <= len(src); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		binary.LittleEndian.PutUint32(o[i:], toNegabinary(w-prev))
		prev = w
	}
	copyTail(o, src)
	return out, nil
}

func (diffNB) Inverse(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	acc := uint32(0)
	for i, n := range words {
		acc += fromNegabinary(n)
		words[i] = acc
	}
	return joinWords(words, tail), nil
}

// xorDelta replaces each word with its XOR against the previous word:
// identical prefixes become leading zeros without carry propagation.
type xorDelta struct{ sameSize }

func (xorDelta) Name() string { return "XOR" }

func (xorDelta) appendForward(dst, src []byte, _ *scratch) ([]byte, error) {
	out, o := extend(dst, len(src))
	prev := uint32(0)
	for i := 0; i+4 <= len(src); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		binary.LittleEndian.PutUint32(o[i:], w^prev)
		prev = w
	}
	copyTail(o, src)
	return out, nil
}

// copyTail copies src's ragged tail (the bytes past its last whole word)
// to the same offset of out, which is as long as src.
func copyTail(out, src []byte) {
	n := len(src) &^ 3
	copy(out[n:], src[n:])
}

func (xorDelta) Inverse(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	acc := uint32(0)
	for i, d := range words {
		acc ^= d
		words[i] = acc
	}
	return joinWords(words, tail), nil
}
