package lc

import (
	"fmt"
	"math/rand"
	"testing"

	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

// checkForwardSize requires forwardLen(c, src) == len(forward(c, src)).
func checkForwardSize(t *testing.T, c Component, src []byte, label string) {
	t.Helper()
	fwd, err := forward(c, src)
	if err != nil {
		t.Fatalf("%s: %s forward: %v", label, c.Name(), err)
	}
	size, err := forwardLen(c, src)
	if err != nil {
		t.Fatalf("%s: %s size: %v", label, c.Name(), err)
	}
	if size != len(fwd) {
		t.Fatalf("%s: %s size = %d, forward output = %d bytes (input %d bytes)", label, c.Name(), size, len(fwd), len(src))
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
		t1, err := forward(s1, src)
		if err != nil {
			t.Fatalf("%s: %s forward: %v", label, s1.Name(), err)
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

// propertyInputs returns the inputs of the stage properties: the sdrbench
// generators in both encodings plus a ragged copy, and the edge cases.
func propertyInputs() map[string][]byte {
	const values = 1024
	inputs := sizeOracleInputs()
	for _, spec := range sdrbench.Inputs() {
		floats := spec.Generate(values)
		fb := posit.EncodeFloat32LE(floats)
		inputs[spec.Name+"/ieee"] = fb
		inputs[spec.Name+"/posit"] = posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, floats))
		inputs[spec.Name+"/ieee-ragged"] = fb[:len(fb)-1]
	}
	return inputs
}

// TestForwardSizeMatchesForward is the exactness property the search relies
// on, over the property inputs, each also through every stage-1 transform.
func TestForwardSizeMatchesForward(t *testing.T) {
	for name, src := range propertyInputs() {
		checkForwardSizeDeep(t, src, name)
	}
}

// soil overwrites every byte sc's buffers can hold with garbage, so a
// stage that reads memory it did not write this call shows.
func soil(sc *scratch) {
	for _, b := range append([][]byte{sc.t1, sc.t2, sc.flags, sc.leads}, sc.levels...) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xa5
		}
	}
}

// checkAppendForward requires appendForward into a buffer with a prefix
// and garbage in its spare capacity to return prefix + forward(c, src),
// and forwardSize on a scratch soiled by earlier calls to match a fresh
// forwardLen.
func checkAppendForward(t *testing.T, c Component, src []byte, sc *scratch, label string) {
	t.Helper()
	want, err := forward(c, src)
	if err != nil {
		t.Fatalf("%s: %s forward: %v", label, c.Name(), err)
	}
	prefix := []byte("prefix")
	dst := make([]byte, len(prefix)+len(want)+64)
	for i := range dst {
		dst[i] = 0xa5
	}
	dst = append(dst[:0], prefix...)
	soil(sc)
	got, err := c.appendForward(dst, src, sc)
	if err != nil {
		t.Fatalf("%s: %s.appendForward: %v", label, c.Name(), err)
	}
	if string(got[:len(prefix)]) != string(prefix) || string(got[len(prefix):]) != string(want) {
		t.Fatalf("%s: %s.appendForward into a dirty buffer differs from prefix + fresh forward (%d vs %d+%d bytes)",
			label, c.Name(), len(got), len(prefix), len(want))
	}
	wantSize, err := forwardLen(c, src)
	if err != nil {
		t.Fatalf("%s: %s size: %v", label, c.Name(), err)
	}
	soil(sc)
	size, err := c.forwardSize(src, sc)
	if err != nil {
		t.Fatalf("%s: %s.forwardSize: %v", label, c.Name(), err)
	}
	if size != wantSize {
		t.Fatalf("%s: %s.forwardSize on a reused scratch = %d, fresh = %d", label, c.Name(), size, wantSize)
	}
}

// checkAppendForwardDeep runs checkAppendForward for every component on
// src and on each stage-1 output of src, all through one scratch, so each
// call inherits the buffers of a different component and input.
func checkAppendForwardDeep(t *testing.T, src []byte, sc *scratch, label string) {
	t.Helper()
	lib := Components()
	for _, c := range lib {
		checkAppendForward(t, c, src, sc, label)
	}
	for _, s1 := range lib {
		t1, err := forward(s1, src)
		if err != nil {
			t.Fatalf("%s: %s forward: %v", label, s1.Name(), err)
		}
		for _, c := range lib {
			checkAppendForward(t, c, t1, sc, label+"/"+s1.Name())
		}
	}
}

// TestAppendForwardDirtyBuffers is the reuse property the search's pooled
// scratch relies on, over the property inputs.
func TestAppendForwardDirtyBuffers(t *testing.T) {
	var sc scratch
	for name, src := range propertyInputs() {
		checkAppendForwardDeep(t, src, &sc, name)
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

// FuzzForwardSize asserts forwardLen == len(forward), and the dirty-buffer
// properties of appendForward and forwardSize, for every component on the
// fuzzed input and on each of its stage-1 outputs.
func FuzzForwardSize(f *testing.F) {
	// Short seeds keep each execution (210 component-input pairs, each run
	// through both checks) fast under coverage instrumentation.
	for _, src := range sizeOracleInputs() {
		f.Add(src[:min(len(src), 256)])
	}
	f.Add(floatField(64))
	f.Add(positLike(64))
	var sc scratch // shared across executions: each inherits the last's buffers
	f.Fuzz(func(t *testing.T, src []byte) {
		label := fmt.Sprintf("fuzz(%d bytes)", len(src))
		checkForwardSizeDeep(t, src, label)
		checkAppendForwardDeep(t, src, &sc, label)
	})
}
