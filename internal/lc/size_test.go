package lc

import (
	"fmt"
	"math/rand"
	"testing"

	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

// checkForwardSize requires c.ForwardSize(src) == len(c.Forward(src)).
func checkForwardSize(t *testing.T, c Component, src []byte, label string) {
	t.Helper()
	fwd, err := c.Forward(src)
	if err != nil {
		t.Fatalf("%s: %s.Forward: %v", label, c.Name(), err)
	}
	size, err := c.ForwardSize(src)
	if err != nil {
		t.Fatalf("%s: %s.ForwardSize: %v", label, c.Name(), err)
	}
	if size != len(fwd) {
		t.Fatalf("%s: %s.ForwardSize = %d, len(Forward) = %d (input %d bytes)", label, c.Name(), size, len(fwd), len(src))
	}
}

// checkForwardSizeDeep checks every component on src and on each
// component's stage-1 output of src: the inputs a terminal stage sees in
// the search are at least one stage removed from the raw data.
func checkForwardSizeDeep(t *testing.T, src []byte, label string) {
	t.Helper()
	lib := Components()
	for _, c := range lib {
		checkForwardSize(t, c, src, label)
	}
	for _, s1 := range lib {
		t1, err := s1.Forward(src)
		if err != nil {
			t.Fatalf("%s: %s.Forward: %v", label, s1.Name(), err)
		}
		for _, c := range lib {
			checkForwardSize(t, c, t1, label+"/"+s1.Name())
		}
	}
}

// sizeOracleInputs returns the edge-case inputs of the size property: empty,
// ragged, all-zero, random and low-entropy bytes.
func sizeOracleInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 4099)
	rng.Read(random)
	lowEntropy := make([]byte, 4096)
	for i := range lowEntropy {
		lowEntropy[i] = byte(rng.Intn(3))
	}
	return map[string][]byte{
		"nil":         nil,
		"1-byte":      {0x5a},
		"3-byte":      {1, 2, 3},
		"all-zero":    make([]byte, 4096),
		"random":      random,
		"low-entropy": lowEntropy,
	}
}

// TestForwardSizeMatchesForward is the exactness property the search relies
// on, over the sdrbench generators in both encodings (plus a ragged copy)
// and the edge-case inputs, each also through every stage-1 transform.
func TestForwardSizeMatchesForward(t *testing.T) {
	const values = 1024
	for _, spec := range sdrbench.Inputs() {
		floats := spec.Generate(values)
		fb := posit.EncodeFloat32LE(floats)
		pb := posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, floats))
		checkForwardSizeDeep(t, fb, spec.Name+"/ieee")
		checkForwardSizeDeep(t, pb, spec.Name+"/posit")
		checkForwardSizeDeep(t, fb[:len(fb)-1], spec.Name+"/ieee-ragged")
	}
	for name, src := range sizeOracleInputs() {
		checkForwardSizeDeep(t, src, name)
	}
}

// TestSearchSizesMatchPipelines checks the search end to end: every size it
// reports equals the header plus the fully built pipeline output.
func TestSearchSizesMatchPipelines(t *testing.T) {
	for _, src := range [][]byte{floatField(256), positLike(256)} {
		rs, err := SearchAll(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != PipelineCount() {
			t.Fatalf("got %d results, want %d", len(rs), PipelineCount())
		}
		for _, r := range rs {
			p, err := r.Pipeline()
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.Apply(src)
			if err != nil {
				t.Fatal(err)
			}
			if r.Size != len(out)+headerBytes {
				t.Fatalf("%s: search size %d, built %d+%d", p, r.Size, len(out), headerBytes)
			}
		}
	}
}

// FuzzForwardSize asserts ForwardSize == len(Forward) for every component
// on the fuzzed input and on each of its stage-1 outputs.
func FuzzForwardSize(f *testing.F) {
	// Short seeds keep each execution (210 Forward/ForwardSize pairs) fast
	// under coverage instrumentation.
	for _, src := range sizeOracleInputs() {
		f.Add(src[:min(len(src), 256)])
	}
	f.Add(floatField(64))
	f.Add(positLike(64))
	f.Fuzz(func(t *testing.T, src []byte) {
		checkForwardSizeDeep(t, src, fmt.Sprintf("fuzz(%d bytes)", len(src)))
	})
}
