package huffman

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The binary-heap Huffman builder that buildOnce replaced, kept as the
// oracle for it: both must produce identical lengths (and therefore
// identical bzip2c, zstdc and LC HUF output) on every frequency table.

type oracleNode struct {
	freq        int
	sym         int // >= 0 for leaves, -1 for internal
	left, right int // node indices
	order       int // tie-break for determinism
}

type oracleHeap struct {
	nodes []oracleNode
	idx   []int
}

func (h *oracleHeap) Len() int { return len(h.idx) }
func (h *oracleHeap) Less(i, j int) bool {
	a, b := h.nodes[h.idx[i]], h.nodes[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.order < b.order
}
func (h *oracleHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *oracleHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *oracleHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

func heapBuildOnce(freqs []int) ([]uint8, int) {
	n := len(freqs)
	lengths := make([]uint8, n)
	h := &oracleHeap{}
	for i, f := range freqs {
		if f > 0 {
			h.nodes = append(h.nodes, oracleNode{freq: f, sym: i, left: -1, right: -1, order: i})
			h.idx = append(h.idx, len(h.nodes)-1)
		}
	}
	switch len(h.idx) {
	case 0:
		return lengths, 0
	case 1:
		lengths[h.nodes[h.idx[0]].sym] = 1
		return lengths, 1
	}
	heap.Init(h)
	order := n
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.nodes = append(h.nodes, oracleNode{
			freq: h.nodes[a].freq + h.nodes[b].freq,
			sym:  -1, left: a, right: b, order: order,
		})
		order++
		heap.Push(h, len(h.nodes)-1)
	}
	type frame struct {
		node, depth int
	}
	stack := []frame{{h.idx[0], 0}}
	maxLen := 0
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.nodes[fr.node]
		if nd.sym >= 0 {
			lengths[nd.sym] = uint8(fr.depth)
			if fr.depth > maxLen {
				maxLen = fr.depth
			}
			continue
		}
		stack = append(stack, frame{nd.left, fr.depth + 1}, frame{nd.right, fr.depth + 1})
	}
	return lengths, maxLen
}

// heapBuildLengths is BuildLengths's flatten-and-retry loop over the heap
// builder. It reports how many retries the limit forced.
func heapBuildLengths(freqs []int, maxBits int) ([]uint8, int) {
	work := append([]int(nil), freqs...)
	for retries := 0; ; retries++ {
		lengths, maxLen := heapBuildOnce(work)
		if maxLen <= maxBits {
			return lengths, retries
		}
		for i, f := range work {
			if f > 0 {
				work[i] = (f + 1) / 2
			}
		}
	}
}

// checkAgainstOracle requires buildOnce and BuildLengths to agree with the
// heap builder on freqs, and returns the number of limit retries.
func checkAgainstOracle(t *testing.T, freqs []int, maxBits int) int {
	t.Helper()
	gotOnce, gotMax := buildOnce(freqs)
	wantOnce, wantMax := heapBuildOnce(freqs)
	if gotMax != wantMax || string(gotOnce) != string(wantOnce) {
		t.Fatalf("buildOnce(%v) = %v max %d, heap builder %v max %d", freqs, gotOnce, gotMax, wantOnce, wantMax)
	}
	got, err := BuildLengths(freqs, maxBits)
	if err != nil {
		t.Fatalf("BuildLengths(%v, %d): %v", freqs, maxBits, err)
	}
	want, retries := heapBuildLengths(freqs, maxBits)
	if string(got) != string(want) {
		t.Fatalf("BuildLengths(%v, %d) = %v, heap builder %v", freqs, maxBits, got, want)
	}
	return retries
}

// randomFreqs draws a frequency table from one of several shapes: uniform,
// sparse, heavy ties, geometric, and power-of-two (which exceeds any
// length limit below the alphabet size and so forces the retry path).
func randomFreqs(rng *rand.Rand) []int {
	n := 1 + rng.Intn(300)
	freqs := make([]int, n)
	switch rng.Intn(5) {
	case 0:
		for i := range freqs {
			freqs[i] = rng.Intn(1000)
		}
	case 1:
		for i := range freqs {
			if rng.Intn(8) == 0 {
				freqs[i] = 1 + rng.Intn(50)
			}
		}
	case 2:
		for i := range freqs {
			freqs[i] = rng.Intn(4)
		}
	case 3:
		for i := range freqs {
			freqs[i] = 1 + int(rng.ExpFloat64()*float64(1+rng.Intn(1<<16)))
		}
	default:
		for i := range freqs {
			freqs[i] = 1 << uint(rng.Intn(40))
		}
		for i := 0; i < n && i < 40; i++ {
			freqs[rng.Intn(n)] = 1 << uint(i)
		}
	}
	return freqs
}

func TestBuildLengthsMatchesHeapBuilder(t *testing.T) {
	const seed = 20261017
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	retried := 0
	for i := 0; i < 1000; i++ {
		freqs := randomFreqs(rng)
		maxBits := 8 + rng.Intn(MaxBits-7)
		for 1<<maxBits < len(freqs) {
			maxBits++
		}
		if checkAgainstOracle(t, freqs, maxBits) > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no table exercised the flatten-and-retry path")
	}
	t.Logf("%d tables took the flatten-and-retry path", retried)
}

func TestBuildLengthsPowerOfTwoRetry(t *testing.T) {
	// Frequencies 1, 2, 4, ..., 2^29: the unlimited tree is a 29-deep
	// chain, so every limit below 29 has to flatten and retry.
	freqs := make([]int, 30)
	for i := range freqs {
		freqs[i] = 1 << uint(i)
	}
	for maxBits := 5; maxBits <= MaxBits; maxBits++ {
		if checkAgainstOracle(t, freqs, maxBits) == 0 {
			t.Fatalf("maxBits %d: expected the limit to force a retry", maxBits)
		}
	}
}

// FuzzBuildLengths reads the input as a frequency table, two bytes per
// symbol; the first byte of each pair is a shift so tables can be skewed
// far past any length limit.
func FuzzBuildLengths(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1})
	f.Add([]byte{0, 5, 1, 5, 2, 5, 3, 5})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 11, 1, 12, 1, 13, 1, 14, 1, 15, 1, 16, 1, 17, 1, 18, 1, 19, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 2
		if n == 0 || n > 1<<MaxBits {
			return
		}
		freqs := make([]int, n)
		for i := range freqs {
			freqs[i] = int(raw[2*i+1]) << (raw[2*i] % 40)
		}
		maxBits := MaxBits
		if len(raw)%2 == 1 {
			maxBits = 8 + int(raw[len(raw)-1])%(MaxBits-7)
			for 1<<maxBits < n {
				maxBits++
			}
		}
		checkAgainstOracle(t, freqs, maxBits)
	})
}

func BenchmarkBuildLengths(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	freqs := make([]int, 256)
	for i := range freqs {
		freqs[i] = rng.Intn(5000)
	}
	b.Run("two-queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildLengths(freqs, MaxBits); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heapBuildLengths(freqs, MaxBits)
		}
	})
}
