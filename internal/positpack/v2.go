package positpack

import (
	"positbench/internal/compress"
	"positbench/internal/predict"
)

// V2 is the second-generation posit compressor "fpc-posit": instead of v1's
// field split (sign/regime/exponent/fraction streams), it runs the FCM/DFCM
// value predictors over the posit<32,3> word stream and codes the XOR
// residuals as sign/LZC/mantissa planes with a per-block Huffman code over
// the LZC buckets (internal/predict with Split mode). Posit words reward
// prediction more than IEEE words: the regime unary prefix makes the top
// bits of nearby values agree, so residual leading zeros run deeper.
//
// Unlike v1 it accepts inputs of any byte length (a trailing partial word
// travels raw), which is what lets it live in the registry and inherit the
// container frame, the parallel chunk engine, and the decode limits.
type V2 struct {
	inner *predict.Codec
}

// NewV2 returns the "fpc-posit" codec.
func NewV2() *V2 {
	return &V2{inner: predict.NewNamed("fpc-posit", predict.Config{Split: true})}
}

// Name implements compress.Codec.
func (v *V2) Name() string { return v.inner.Name() }

// Info implements compress.Describer.
func (v *V2) Info() compress.Info {
	return compress.Info{
		Name:    v.inner.Name(),
		Version: "2.0",
		Source:  "positpack v2: FCM/DFCM prediction over posit<32,3> words, split-plane residuals",
	}
}

// Compress implements compress.Codec.
func (v *V2) Compress(src []byte) ([]byte, error) { return v.inner.Compress(src) }

// CompressAppend implements compress.AppendCompressor.
func (v *V2) CompressAppend(dst, src []byte) ([]byte, error) {
	return v.inner.CompressAppend(dst, src)
}

// Decompress implements compress.Codec.
func (v *V2) Decompress(comp []byte) ([]byte, error) { return v.inner.Decompress(comp) }

// DecompressLimits implements compress.Limited.
func (v *V2) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return v.inner.DecompressLimits(comp, lim)
}

// DecompressAppendLimits implements compress.AppendDecompressor.
func (v *V2) DecompressAppendLimits(dst, comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return v.inner.DecompressAppendLimits(dst, comp, lim)
}

var (
	_ compress.Codec              = (*V2)(nil)
	_ compress.AppendCompressor   = (*V2)(nil)
	_ compress.AppendDecompressor = (*V2)(nil)
	_ compress.Limited            = (*V2)(nil)
	_ compress.Describer          = (*V2)(nil)
)
