package lc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"positbench/internal/par"
)

// Result is one pipeline's outcome on one input.
type Result struct {
	Names [PipelineDepth]string // stage names (stable identity for maps)
	Size  int                   // compressed size in bytes (incl. 4-byte header)
	Ratio float64               // original/compressed
}

// Pipeline reconstructs the pipeline for a result.
func (r Result) Pipeline() (Pipeline, error) {
	return NewPipeline(r.Names[:]...)
}

// headerBytes is the LC container overhead (stage count + IDs), charged to
// every pipeline so sizes are comparable with the other codecs.
const headerBytes = 1 + PipelineDepth

// SearchAll evaluates every 3-stage pipeline over the component library on
// data, in parallel, and returns results sorted best (largest ratio) first.
// Ties break lexicographically on the pipeline string so output is
// deterministic. Stage 1 and stage 2 outputs are built once and shared;
// the terminal stage is only sized, never built. NUL is the identity, so
// (NUL, X, Y) produces exactly the bytes of (X, NUL, Y): those sizes are
// copied, not recomputed. Each stage-1 iteration borrows one pooled
// scratch for every buffer it needs, so a warm search allocates only its
// result slices.
func SearchAll(data []byte) ([]Result, error) {
	lib := library
	nl := len(lib)
	// keys[(i*nl+j)*nl+k] packs pipeline (i, j, k)'s size above its rank,
	// so sorting the keys sorts by size, then by pipeline string.
	keys := make([]uint64, nl*nl*nl)
	err := par.For(nl, 0, func(i int) error {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		s1 := lib[i]
		var err error
		if sc.t1, err = s1.appendForward(sc.t1[:0], data, sc); err != nil {
			return fmt.Errorf("%s: %w", s1.Name(), err)
		}
		for j, s2 := range lib {
			if i == nulID && j != nulID {
				continue // (NUL, X, ·) is filled from (X, NUL, ·) below
			}
			if sc.t2, err = s2.appendForward(sc.t2[:0], sc.t1, sc); err != nil {
				return fmt.Errorf("%s|%s: %w", s1.Name(), s2.Name(), err)
			}
			for k, s3 := range lib {
				n3, err := s3.forwardSize(sc.t2, sc)
				if err != nil {
					return fmt.Errorf("%s|%s|%s: %w", s1.Name(), s2.Name(), s3.Name(), err)
				}
				idx := (i*nl+j)*nl + k
				keys[idx] = uint64(n3+headerBytes)<<rankBits | uint64(pipelineRank[idx])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j := range lib {
		if j == nulID {
			continue
		}
		for k := range lib {
			idx, twin := (nulID*nl+j)*nl+k, (j*nl+nulID)*nl+k
			keys[idx] = keys[twin]>>rankBits<<rankBits | uint64(pipelineRank[idx])
		}
	}
	slices.Sort(keys)
	results := make([]Result, len(keys))
	for p, key := range keys {
		idx := int(rankOrder[key&(1<<rankBits-1)])
		size := int(key >> rankBits)
		results[p] = Result{
			Names: [PipelineDepth]string{lib[idx/(nl*nl)].Name(), lib[idx/nl%nl].Name(), lib[idx%nl].Name()},
			Size:  size,
			Ratio: float64(len(data)) / float64(size),
		}
	}
	return results, nil
}

// library is the component list the search runs over.
var library = Components()

// pipelineRank[(i*n+j)*n+k] is the position of pipeline (i, j, k) among
// all pipelines in byte-wise order of their "a|b|c" strings, the search's
// tie-break; rankOrder is its inverse. rankBits is the width of a rank.
var (
	pipelineRank, rankOrder = rankPipelines(library)
	rankBits                = bits.Len(uint(len(rankOrder) - 1))
)

// rankPipelines computes the pipeline string order stage by stage. No
// name contains '|', and '|' sorts after every letter and digit, so two
// strings that differ first in stage 1 or 2 compare like that stage's
// name followed by '|' ("DIFF4|..." < "DIFF|..."), and two that differ
// only in stage 3 compare like the bare names ("...|DIFF" < "...|DIFF4").
func rankPipelines(lib []Component) (rank, order []uint32) {
	n := len(lib)
	inner, last := stageOrder(lib, "|"), stageOrder(lib, "")
	rank = make([]uint32, n*n*n)
	order = make([]uint32, n*n*n)
	for i := range lib {
		for j := range lib {
			for k := range lib {
				idx := (i*n+j)*n + k
				r := (inner[i]*n+inner[j])*n + last[k]
				rank[idx], order[r] = uint32(r), uint32(idx)
			}
		}
	}
	return rank, order
}

// stageOrder returns each component's position when the library's names,
// each followed by suffix, are sorted byte-wise.
func stageOrder(lib []Component, suffix string) []int {
	byName := make([]int, len(lib))
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(a, b int) bool {
		return lib[byName[a]].Name()+suffix < lib[byName[b]].Name()+suffix
	})
	pos := make([]int, len(lib))
	for p, i := range byName {
		pos[i] = p
	}
	return pos
}

func pipeKey(names [PipelineDepth]string) string {
	return names[0] + "|" + names[1] + "|" + names[2]
}

// SearchAllMulti runs SearchAll on every input, preserving order. The
// result sets can be fed to both SelectGlobal and SelectPerFile without
// re-running the (expensive) search.
func SearchAllMulti(inputs [][]byte) ([][]Result, error) {
	perInput := make([][]Result, len(inputs))
	for i, data := range inputs {
		rs, err := SearchAll(data)
		if err != nil {
			return nil, err
		}
		perInput[i] = rs
	}
	return perInput, nil
}

// SelectPerFile picks each input's individually best pipeline from
// precomputed search results (the paper's Figure 6 per-file mode).
func SelectPerFile(perInput [][]Result) ([]Result, error) {
	out := make([]Result, len(perInput))
	for i, rs := range perInput {
		if len(rs) == 0 {
			return nil, fmt.Errorf("lc: input %d has no results", i)
		}
		out[i] = rs[0]
	}
	return out, nil
}

// BestPerFile returns, for each input, the best pipeline found on that
// input alone, preserving input order.
func BestPerFile(inputs [][]byte) ([]Result, error) {
	perInput, err := SearchAllMulti(inputs)
	if err != nil {
		return nil, err
	}
	return SelectPerFile(perInput)
}

// BestGlobal runs the search on every input and returns the single pipeline
// with the highest geometric-mean ratio across all inputs (the paper's
// Section 4.3 selection rule), plus its per-input results.
func BestGlobal(inputs [][]byte) (Pipeline, []Result, error) {
	perInput, err := SearchAllMulti(inputs)
	if err != nil {
		return Pipeline{}, nil, err
	}
	return SelectGlobal(perInput)
}

// SelectGlobal picks the single pipeline with the highest geometric-mean
// ratio across all precomputed result sets.
func SelectGlobal(perInput [][]Result) (Pipeline, []Result, error) {
	inputs := perInput // alias: only the length is used below
	if len(inputs) == 0 {
		return Pipeline{}, nil, fmt.Errorf("lc: no inputs")
	}
	// Accumulate log-ratios per pipeline. The name tuple is the map key;
	// the "a|b|c" string, which breaks ties, is built once per pipeline.
	type acc struct {
		sumLog float64
		count  int
		key    string
	}
	accs := make(map[[PipelineDepth]string]*acc)
	for _, rs := range perInput {
		for _, r := range rs {
			a, ok := accs[r.Names]
			if !ok {
				a = &acc{key: pipeKey(r.Names)}
				accs[r.Names] = a
			}
			a.sumLog += math.Log(r.Ratio)
			a.count++
		}
	}
	var names [PipelineDepth]string
	bestKey := ""
	bestMean := math.Inf(-1)
	for nm, a := range accs {
		if a.count != len(inputs) {
			continue // pipeline failed on some input; not eligible
		}
		mean := a.sumLog / float64(len(inputs))
		if mean > bestMean || (mean == bestMean && a.key < bestKey) {
			bestMean, bestKey, names = mean, a.key, nm
		}
	}
	if bestKey == "" {
		return Pipeline{}, nil, fmt.Errorf("lc: no pipeline succeeded on all inputs")
	}
	pipe, err := NewPipeline(names[:]...)
	if err != nil {
		return Pipeline{}, nil, err
	}
	// Collect this pipeline's per-input results.
	results := make([]Result, len(inputs))
	for i, rs := range perInput {
		for _, r := range rs {
			if r.Names == names {
				results[i] = r
				break
			}
		}
	}
	return pipe, results, nil
}

// PipelineCount reports the size of the search space.
func PipelineCount() int {
	n := len(Components())
	return n * n * n
}
