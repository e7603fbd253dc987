package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/core"
	"positbench/internal/posit"
)

// probeValues is the per-input size of the fixed layer-probe inputs; the
// probes read the same bytes on every workload, so their numbers compare
// across workloads.
const probeValues = 65536

// probeChunk is the single chunk each codec probe compresses.
const probeChunk = 256 << 10

// laid returns the inputs in both encodings laid end to end: IEEE then
// posit for each input in the paper's order.
func laid(inputs []*core.Input) []byte {
	n := 0
	for _, in := range inputs {
		n += len(in.FloatBytes) + len(in.PositBytes)
	}
	out := make([]byte, 0, n)
	for _, in := range inputs {
		out = append(out, in.Bytes(core.EncIEEE)...)
		out = append(out, in.Bytes(core.EncPosit)...)
	}
	return out
}

// probeLayers measures the codec and posit layers directly: each registry
// codec on one chunk through compress.CompressAppend /
// DecompressAppendLimits, and posit<32,3> conversion over the 14 inputs.
// Every traced run does this on the same fixed inputs.
func probeLayers(rec *recorder, res *result) error {
	inputs := core.PrepareInputs(probeValues, 0, nil)
	raw := laid(inputs)
	if len(raw) < probeChunk {
		return fmt.Errorf("probe input is %d bytes, want at least %d", len(raw), probeChunk)
	}
	chunk := raw[:probeChunk]
	op := 0
	for _, c := range all.Codecs() {
		var comp, out []byte
		var encT, decT []float64
		for i := 0; i < 3 || sum(encT)+sum(decT) < 0.3; i++ {
			op++
			sp := rec.start(nil, op, "codec", "CompressAppend."+c.Name())
			t0 := time.Now()
			var err error
			comp, err = compress.CompressAppend(c, comp[:0], chunk)
			encT = append(encT, time.Since(t0).Seconds())
			sp.End()
			sp = rec.start(nil, op, "codec", "DecompressAppendLimits."+c.Name())
			t0 = time.Now()
			if err == nil {
				out, err = compress.DecompressAppendLimits(c, out[:0], comp, compress.DecodeLimits{})
			}
			decT = append(decT, time.Since(t0).Seconds())
			sp.End()
			if err == nil && !bytes.Equal(out, chunk) {
				err = errors.New("roundtrip differs from the input chunk")
			}
			if !res.record("probe codec "+c.Name(), err) {
				break
			}
		}
		mb := float64(len(chunk)) / 1e6
		res.layer["codec."+c.Name()+".encode_mb_s"] = mb / median(encT)
		res.layer["codec."+c.Name()+".decode_mb_s"] = mb / median(decT)
		res.layer["codec."+c.Name()+".ratio"] = compress.Ratio(len(chunk), len(comp))
	}

	var floats []float32
	var want []byte
	for _, in := range inputs {
		floats = append(floats, in.Floats...)
		want = append(want, in.PositBytes...)
	}
	words := make([]uint32, len(floats))
	back := make([]float32, len(floats))
	var encT, decT, statT []float64
	for i := 0; i < 3; i++ {
		op++
		sp := rec.start(nil, op, "posit", "FromFloat32Slice")
		t0 := time.Now()
		words = posit.Posit32e3.FromFloat32Slice(words, floats)
		encT = append(encT, time.Since(t0).Seconds())
		sp.End()
		sp = rec.start(nil, op, "posit", "ToFloat32Slice")
		t0 = time.Now()
		back = posit.Posit32e3.ToFloat32Slice(back, words)
		decT = append(decT, time.Since(t0).Seconds())
		sp.End()
		sp = rec.start(nil, op, "posit", "RoundtripStats")
		t0 = time.Now()
		st := posit.Posit32e3.RoundtripStats(floats)
		statT = append(statT, time.Since(t0).Seconds())
		sp.End()
		var err error
		switch {
		case !bytes.Equal(posit.EncodeWordsLE(words), want):
			err = errors.New("posit<32,3> encoding differs from the study's prepared posit bytes")
		case len(back) != len(floats) || st.Total != len(floats):
			err = fmt.Errorf("posit decode returned %d values, stats counted %d, want %d", len(back), st.Total, len(floats))
		}
		if !res.record("probe posit", err) {
			break
		}
	}
	mvals := float64(len(floats)) / 1e6
	res.layer["posit.encode_mvals_s"] = mvals / median(encT)
	res.layer["posit.decode_mvals_s"] = mvals / median(decT)
	res.layer["posit.stats_s"] = median(statT)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
