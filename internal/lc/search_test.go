package lc

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
)

// TestPipelineRankMatchesStringOrder pins the search's tie-break: the
// rank table computed stage by stage must equal the byte-wise order of the
// "a|b|c" strings, where a name that is a prefix of another sorts after it
// in stage 1 or 2 ("DIFF4|..." < "DIFF|...") and before it in stage 3
// ("...|DIFF" < "...|DIFF4").
func TestPipelineRankMatchesStringOrder(t *testing.T) {
	lib := Components()
	if lib[nulID].Name() != "NUL" {
		t.Fatalf("component %d is %s, want NUL", nulID, lib[nulID].Name())
	}
	n := len(lib)
	keys := make([]string, n*n*n)
	for idx := range keys {
		keys[idx] = pipeKey([PipelineDepth]string{lib[idx/(n*n)].Name(), lib[idx/n%n].Name(), lib[idx%n].Name()})
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for idx, key := range keys {
		r := pipelineRank[idx]
		if sorted[r] != key {
			t.Fatalf("%s: rank %d, but sort.Strings puts %s there", key, r, sorted[r])
		}
		if int(rankOrder[r]) != idx {
			t.Fatalf("%s: rankOrder[%d] = %d, want %d", key, r, rankOrder[r], idx)
		}
	}
	rank := func(a, b, c string) uint32 {
		t.Helper()
		for idx, key := range keys {
			if key == a+"|"+b+"|"+c {
				return pipelineRank[idx]
			}
		}
		t.Fatalf("no pipeline %s|%s|%s", a, b, c)
		return 0
	}
	for _, pair := range [][2]string{{"DIFF", "DIFF4"}, {"XOR", "XOR4"}} {
		short, long := pair[0], pair[1]
		if rank(long, "NUL", "HUF") > rank(short, "NUL", "HUF") {
			t.Errorf("stage 1: %s|... must sort before %s|...", long, short)
		}
		if rank("NUL", long, "HUF") > rank("NUL", short, "HUF") {
			t.Errorf("stage 2: ...|%s|... must sort before ...|%s|...", long, short)
		}
		if rank("NUL", "HUF", short) > rank("NUL", "HUF", long) {
			t.Errorf("stage 3: ...|%s must sort before ...|%s", short, long)
		}
	}
}

// TestSearchOrderAndNulTwins checks SearchAll's output order against the
// string keys it replaced, and that every (NUL, X, Y) reports the size of
// (X, NUL, Y), whose bytes it produces (TestSearchSizesMatchPipelines
// checks both against the built pipelines).
func TestSearchOrderAndNulTwins(t *testing.T) {
	for _, src := range [][]byte{floatField(256), positLike(256), floatField(256)[:1023]} {
		rs, err := SearchAll(src)
		if err != nil {
			t.Fatal(err)
		}
		size := make(map[[PipelineDepth]string]int, len(rs))
		for i, r := range rs {
			size[r.Names] = r.Size
			if i == 0 {
				continue
			}
			prev := rs[i-1]
			if prev.Size > r.Size || prev.Size == r.Size && pipeKey(prev.Names) >= pipeKey(r.Names) {
				t.Fatalf("results %d and %d out of order: %s (%d) before %s (%d)",
					i-1, i, pipeKey(prev.Names), prev.Size, pipeKey(r.Names), r.Size)
			}
		}
		for _, x := range Components() {
			for _, y := range Components() {
				a := [PipelineDepth]string{"NUL", x.Name(), y.Name()}
				b := [PipelineDepth]string{x.Name(), "NUL", y.Name()}
				if size[a] != size[b] {
					t.Fatalf("%s reports %d bytes, %s %d", pipeKey(a), size[a], pipeKey(b), size[b])
				}
			}
		}
	}
}

// TestSearchAllAllocs is the search's allocation gate: a warm search
// allocates its key and result slices and the fork-join's bookkeeping,
// the same handful at 4 KiB as at 64 KiB, so nothing allocates per
// pipeline or per input byte. The collector is off while counting so a
// cycle cannot empty the scratch pool mid-measurement.
func TestSearchAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxAllocs = 16
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	runtime.GC()
	for _, values := range []int{1 << 10, 1 << 14} {
		src := floatField(values)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := SearchAll(src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d KiB input: %.1f allocs per search", len(src)>>10, allocs)
		if allocs > maxAllocs {
			t.Errorf("%d KiB input: %.1f allocs per search, want <= %d", len(src)>>10, allocs, maxAllocs)
		}
	}
}

// TestConcurrentSearchAndApply runs searches and pipeline applications
// from several goroutines at once, all drawing on the one scratch pool,
// and requires each to match its serial result.
func TestConcurrentSearchAndApply(t *testing.T) {
	inputs := [][]byte{floatField(256), positLike(256), floatField(300)[:1199]}
	pipe, err := NewPipeline("DIFFMS", "RARE", "HUF")
	if err != nil {
		t.Fatal(err)
	}
	wantSearch := make([][]Result, len(inputs))
	wantApply := make([][]byte, len(inputs))
	for i, src := range inputs {
		if wantSearch[i], err = SearchAll(src); err != nil {
			t.Fatal(err)
		}
		if wantApply[i], err = pipe.Apply(src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (g + rep) % len(inputs)
				rs, err := SearchAll(inputs[i])
				if err != nil {
					t.Error(err)
					return
				}
				for p := range rs {
					if rs[p] != wantSearch[i][p] {
						t.Errorf("goroutine %d input %d: result %d = %+v, serial %+v", g, i, p, rs[p], wantSearch[i][p])
						return
					}
				}
				out, err := pipe.Apply(inputs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out, wantApply[i]) {
					t.Errorf("goroutine %d input %d: Apply differs from serial", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
