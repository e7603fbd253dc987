package lc

import (
	"fmt"
	"math"
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
// the terminal stage is only sized (Component.ForwardSize), never built.
func SearchAll(data []byte) ([]Result, error) {
	lib := Components()
	nl := len(lib)
	results := make([]Result, nl*nl*nl)
	err := par.For(nl, 0, func(i int) error {
		s1 := lib[i]
		t1, err := s1.Forward(data)
		if err != nil {
			return fmt.Errorf("%s: %w", s1.Name(), err)
		}
		block := results[i*nl*nl : (i+1)*nl*nl]
		for j, s2 := range lib {
			t2, err := s2.Forward(t1)
			if err != nil {
				return fmt.Errorf("%s|%s: %w", s1.Name(), s2.Name(), err)
			}
			for k, s3 := range lib {
				n3, err := s3.ForwardSize(t2)
				if err != nil {
					return fmt.Errorf("%s|%s|%s: %w", s1.Name(), s2.Name(), s3.Name(), err)
				}
				size := n3 + headerBytes
				block[j*nl+k] = Result{
					Names: [PipelineDepth]string{s1.Name(), s2.Name(), s3.Name()},
					Size:  size,
					Ratio: float64(len(data)) / float64(size),
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortResults(results)
	return results, nil
}

// sortResults orders rs by size, then by pipeline string. Each string is
// built once up front rather than in every comparison; it must stay the
// "a|b|c" string, not the name tuple, because the two orders differ
// ("DIFF|..." sorts after "DIFF4|...").
func sortResults(rs []Result) {
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = pipeKey(r.Names)
	}
	sort.Sort(byPipeline{rs, keys})
}

type byPipeline struct {
	rs   []Result
	keys []string
}

func (b byPipeline) Len() int { return len(b.rs) }
func (b byPipeline) Less(i, j int) bool {
	if b.rs[i].Size != b.rs[j].Size {
		return b.rs[i].Size < b.rs[j].Size
	}
	return b.keys[i] < b.keys[j]
}
func (b byPipeline) Swap(i, j int) {
	b.rs[i], b.rs[j] = b.rs[j], b.rs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
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
