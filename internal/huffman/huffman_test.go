package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"positbench/internal/bitio"
)

func roundtrip(t *testing.T, freqs []int, data []int, maxBits int) {
	t.Helper()
	lengths, err := BuildLengths(freqs, maxBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if int(l) > maxBits {
			t.Fatalf("length %d exceeds limit %d", l, maxBits)
		}
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(1024)
	if err := WriteLengths(w, lengths); err != nil {
		t.Fatal(err)
	}
	for _, s := range data {
		enc.Encode(w, s)
	}
	r := bitio.NewReader(w.Bytes())
	gotLengths, err := ReadLengths(r, len(freqs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lengths {
		if gotLengths[i] != lengths[i] {
			t.Fatalf("length table mismatch at %d", i)
		}
	}
	dec, err := NewDecoder(gotLengths)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range data {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d: got %d want %d", i, got, want)
		}
	}
}

func TestBasicRoundtrip(t *testing.T) {
	freqs := []int{10, 1, 5, 0, 3}
	data := []int{0, 1, 2, 4, 0, 0, 2, 1, 4, 0}
	roundtrip(t, freqs, data, MaxBits)
}

func TestSingleSymbol(t *testing.T) {
	freqs := []int{0, 7, 0}
	data := []int{1, 1, 1, 1}
	roundtrip(t, freqs, data, MaxBits)
}

func TestTwoSymbols(t *testing.T) {
	roundtrip(t, []int{1000000, 1}, []int{0, 1, 0, 0, 1}, MaxBits)
}

func TestSkewedLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; the limiter must clamp.
	freqs := make([]int, 30)
	a, b := 1, 1
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	lengths, err := BuildLengths(freqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if l > 8 {
			t.Fatalf("limit violated: %d", l)
		}
		if l == 0 {
			t.Fatal("nonzero freq got no code")
		}
	}
	data := make([]int, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = rng.Intn(30)
	}
	roundtrip(t, freqs, data, 8)
}

func TestLargeAlphabet(t *testing.T) {
	n := 1024
	freqs := make([]int, n)
	rng := rand.New(rand.NewSource(2))
	for i := range freqs {
		freqs[i] = rng.Intn(1000)
	}
	data := make([]int, 2000)
	for i := range data {
		for {
			s := rng.Intn(n)
			if freqs[s] > 0 {
				data[i] = s
				break
			}
		}
	}
	roundtrip(t, freqs, data, MaxBits)
}

func TestRandomRoundtripQuick(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		freqs := make([]int, 256)
		for _, b := range raw {
			freqs[b]++
		}
		data := make([]int, len(raw))
		for i, b := range raw {
			data[i] = int(b)
		}
		lengths, err := BuildLengths(freqs, MaxBits)
		if err != nil {
			return false
		}
		enc, err := NewEncoder(lengths)
		if err != nil {
			return false
		}
		w := bitio.NewWriter(len(raw))
		for _, s := range data {
			enc.Encode(w, s)
		}
		dec, err := NewDecoder(lengths)
		if err != nil {
			return false
		}
		r := bitio.NewReader(w.Bytes())
		for _, want := range data {
			got, err := dec.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := BuildLengths(nil, MaxBits); err == nil {
		t.Fatal("empty alphabet")
	}
	if _, err := BuildLengths([]int{1}, 0); err == nil {
		t.Fatal("bad maxBits")
	}
	if _, err := BuildLengths(make([]int, 1<<16+1), 15); err == nil {
		t.Fatal("alphabet too large for limit")
	}
	// Over-subscribed table must be rejected.
	if _, err := NewDecoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("over-subscribed table accepted")
	}
	if err := WriteLengths(bitio.NewWriter(8), []uint8{16}); err == nil {
		t.Fatal("length 16 must be rejected by serializer")
	}
	// Truncated input to Decode.
	dec, err := NewDecoder([]uint8{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(bitio.NewReader(nil)); err == nil {
		t.Fatal("want EOF error")
	}
	// Zero-run overflow in ReadLengths.
	w := bitio.NewWriter(8)
	w.WriteBits(0, 4)
	w.WriteBits(255, 8)
	if _, err := ReadLengths(bitio.NewReader(w.Bytes()), 3); err == nil {
		t.Fatal("zero-run overflow accepted")
	}
}

func TestOptimality(t *testing.T) {
	// For a dyadic distribution, Huffman must achieve exactly the entropy.
	freqs := []int{8, 4, 2, 1, 1}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 2, 3, 4, 4}
	for i := range want {
		if lengths[i] != want[i] {
			t.Fatalf("lengths = %v, want %v", lengths, want)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int, 1<<16)
	freqs := make([]int, 256)
	for i := range data {
		s := rng.Intn(64) // skewed
		data[i] = s
		freqs[s]++
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	enc, _ := NewEncoder(lengths)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := bitio.NewWriter(len(data))
		for _, s := range data {
			enc.Encode(w, s)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	data := make([]int, 1<<16)
	freqs := make([]int, 256)
	for i := range data {
		s := rng.Intn(64)
		data[i] = s
		freqs[s]++
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	enc, _ := NewEncoder(lengths)
	w := bitio.NewWriter(len(data))
	for _, s := range data {
		enc.Encode(w, s)
	}
	buf := w.Bytes()
	dec, _ := NewDecoder(lengths)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(buf)
		for range data {
			if _, err := dec.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestLengthsBitsMatchesWriteLengths(t *testing.T) {
	const seed = 5
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 500; i++ {
		lengths := make([]uint8, 1+rng.Intn(1200))
		density := rng.Intn(10) // 0 leaves long zero runs, past the 256 cap
		for j := range lengths {
			if rng.Intn(10) < density {
				lengths[j] = uint8(1 + rng.Intn(15))
			}
		}
		w := bitio.NewWriter(64)
		if err := WriteLengths(w, lengths); err != nil {
			t.Fatal(err)
		}
		got, err := LengthsBits(lengths)
		if err != nil {
			t.Fatal(err)
		}
		if got != w.BitLen() {
			t.Fatalf("table %d: LengthsBits = %d, WriteLengths wrote %d bits", i, got, w.BitLen())
		}
	}
	if _, err := LengthsBits([]uint8{16}); err == nil {
		t.Fatal("want error for a length above 15")
	}
}
