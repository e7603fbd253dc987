package posit

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"positbench/internal/par"
)

// Batch conversion between IEEE-754 binary32 streams and 32-bit posit
// streams. This is the operation the paper performs on every SDRBench input
// (via cppposit) before handing the bytes to the compressors.
//
// Both representations are serialized little-endian, one 32-bit word per
// value, so a converted file has exactly the size of its source.

// ConvertStats summarizes a float32 -> posit -> float32 roundtrip, the
// paper's Section 4.2 precision metric.
type ConvertStats struct {
	Total   int     // number of values converted
	Exact   int     // values whose roundtrip reproduces the input bit-for-bit
	MaxAbsE float64 // largest absolute roundtrip error over finite values
}

// PrecisePct returns the percentage of exactly preserved values.
func (s ConvertStats) PrecisePct() float64 {
	if s.Total == 0 {
		return 100
	}
	return 100 * float64(s.Exact) / float64(s.Total)
}

// FromFloat32Slice converts src into posit bit patterns under c.
// dst must have len(src) capacity; if nil a new slice is allocated.
func (c Config) FromFloat32Slice(dst []uint32, src []float32) []uint32 {
	return c.FromFloat32SliceWorkers(dst, src, 0)
}

// FromFloat32SliceWorkers is FromFloat32Slice with an explicit worker
// count for this call only; n <= 0 falls back to the SetBatchWorkers /
// GOMAXPROCS default. Serving paths use the per-call form so one request's
// knob cannot perturb another's.
func (c Config) FromFloat32SliceWorkers(dst []uint32, src []float32, n int) []uint32 {
	if dst == nil {
		dst = make([]uint32, len(src))
	}
	parallelRange(len(src), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = uint32(c.FromFloat32(src[i]))
		}
	})
	return dst[:len(src)]
}

// ToFloat32Slice converts posit bit patterns back to float32.
func (c Config) ToFloat32Slice(dst []float32, src []uint32) []float32 {
	return c.ToFloat32SliceWorkers(dst, src, 0)
}

// ToFloat32SliceWorkers is ToFloat32Slice with a per-call worker count
// (n <= 0 selects the package default).
func (c Config) ToFloat32SliceWorkers(dst []float32, src []uint32, n int) []float32 {
	if dst == nil {
		dst = make([]float32, len(src))
	}
	if c.kernelOK() {
		parallelRange(len(src), n, func(lo, hi int) {
			c.decode32Batch(dst[lo:hi], src[lo:hi])
		})
		return dst[:len(src)]
	}
	parallelRange(len(src), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = c.ToFloat32(uint64(src[i]))
		}
	})
	return dst[:len(src)]
}

// RoundtripStats converts src to posits and back, reporting how many values
// survive exactly. NaN inputs count as exact when the roundtrip returns any
// NaN (posits collapse all NaNs to NaR).
func (c Config) RoundtripStats(src []float32) ConvertStats {
	return c.RoundtripStatsWorkers(src, 0)
}

// RoundtripStatsWorkers is RoundtripStats with a per-call worker count
// (nWorkers <= 0 selects the package default).
func (c Config) RoundtripStatsWorkers(src []float32, nWorkers int) ConvertStats {
	var mu sync.Mutex
	var total ConvertStats
	parallelRange(len(src), nWorkers, func(lo, hi int) {
		var st ConvertStats
		for i := lo; i < hi; i++ {
			f := src[i]
			back := c.ToFloat32(uint64(c.FromFloat32(f)))
			st.Total++
			switch {
			case math.IsNaN(float64(f)):
				if math.IsNaN(float64(back)) {
					st.Exact++
				}
			case math.Float32bits(f) == math.Float32bits(back):
				st.Exact++
			default:
				if e := math.Abs(float64(back) - float64(f)); e > st.MaxAbsE {
					st.MaxAbsE = e
				}
			}
		}
		mu.Lock()
		total.Total += st.Total
		total.Exact += st.Exact
		total.MaxAbsE = math.Max(total.MaxAbsE, st.MaxAbsE)
		mu.Unlock()
	})
	return total
}

// EncodeFloat32LE serializes float32 values little-endian (.f32 layout).
func EncodeFloat32LE(src []float32) []byte {
	out := make([]byte, 4*len(src))
	for i, f := range src {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(f))
	}
	return out
}

// DecodeFloat32LE parses a little-endian .f32 byte stream.
func DecodeFloat32LE(p []byte) ([]float32, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("posit: byte length %d not a multiple of 4", len(p))
	}
	out := make([]float32, len(p)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out, nil
}

// EncodeWordsLE serializes 32-bit words (posit patterns) little-endian.
func EncodeWordsLE(src []uint32) []byte {
	out := make([]byte, 4*len(src))
	for i, w := range src {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// DecodeWordsLE parses a little-endian 32-bit word stream.
func DecodeWordsLE(p []byte) ([]uint32, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("posit: byte length %d not a multiple of 4", len(p))
	}
	out := make([]uint32, len(p)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return out, nil
}

// ConvertFileF32ToPosit converts a raw .f32 byte stream into the
// equal-sized posit<32,es> byte stream, returning roundtrip statistics.
func (c Config) ConvertFileF32ToPosit(f32 []byte) ([]byte, ConvertStats, error) {
	if c.N != 32 {
		return nil, ConvertStats{}, fmt.Errorf("posit: file conversion requires a 32-bit config, got %v", c)
	}
	floats, err := DecodeFloat32LE(f32)
	if err != nil {
		return nil, ConvertStats{}, err
	}
	words := c.FromFloat32Slice(nil, floats)
	stats := c.RoundtripStats(floats)
	return EncodeWordsLE(words), stats, nil
}

// batchWorkers, when positive, caps the goroutine count of the batch
// converters; zero means "use GOMAXPROCS".
var batchWorkers atomic.Int32

// SetBatchWorkers caps the worker count used by the slice converters and
// RoundtripStats (the CLIs' -p flag lands here). n <= 0 restores the
// GOMAXPROCS default. Safe to call concurrently with conversions; running
// conversions keep the count they started with.
func SetBatchWorkers(n int) {
	if n < 0 {
		n = 0
	}
	batchWorkers.Store(int32(n))
}

// clampWorkers resolves an explicit per-call worker count (or the package
// default when nw <= 0) and clamps it to [1, n].
func clampWorkers(nw, n int) int {
	if nw <= 0 {
		nw = int(batchWorkers.Load())
	}
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// parallelRange splits [0,n) into one contiguous half-open interval per
// worker (nWorkers <= 0 selects the package default) and runs them through
// par.For; results must be written to per-index slots so output is
// deterministic.
func parallelRange(n, nWorkers int, fn func(lo, hi int)) {
	nw := clampWorkers(nWorkers, n)
	chunk := (n + nw - 1) / nw
	par.For(nw, nw, func(w int) error {
		lo := min(w*chunk, n)
		fn(lo, min(lo+chunk, n))
		return nil
	})
}
