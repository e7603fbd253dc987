package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/core"
	"positbench/internal/lc"
	"positbench/internal/stats"
)

// studyConfig sizes the study workload.
type studyConfig struct {
	values int          // ValuesPerInput of every core.Run
	probe  streamConfig // the small stream pass over the study's inputs
}

// defaultStudy runs the paper's experiment at 1024 values per input: the
// LC search is most of each run, and several runs fit in the measurement
// time so run_s is a median. The inputs come from the paper's fixed
// generators, so the seed changes only the probe's windows.
func defaultStudy() studyConfig {
	return studyConfig{values: 1024, probe: streamConfig{
		values: 1024, chunk: 16 << 10, workers: runtime.NumCPU(),
		cacheBytes: 112 << 10, windows: 400, winMin: 2 << 10, winMax: 8 << 10}}
}

// codecsPerStudy is the registry plus the LC column.
func codecsPerStudy() int { return len(all.Codecs()) + 1 }

func runStudy(e *env) (*result, error) { return studyWorkload(e, defaultStudy()) }

func studyWorkload(e *env, cfg studyConfig) (*result, error) {
	res := newResult()
	var inputs []*core.Input
	var raw []byte
	_ = timedSetup(e, res, func() error { // this set-up cannot fail
		inputs = core.PrepareInputs(cfg.values, 0, nil)
		raw = laid(inputs)
		return nil
	})
	if e.setupOnly {
		return res, nil
	}
	res.proto["values_per_input"] = cfg.values
	res.proto["cells_per_rep"] = len(inputs) * 2 * codecsPerStudy()
	res.proto["lc_pipelines_per_input"] = lc.PipelineCount()
	res.proto["probe_chunk_bytes"] = cfg.probe.chunk
	res.proto["probe_cache_bytes"] = cfg.probe.cacheBytes
	res.proto["probe_windows_per_rep"] = cfg.probe.windows
	res.proto["inputs_note"] = "the paper's fixed generators; the seed only picks the probe windows"

	if e.rec != nil {
		return res, traceStudy(e, cfg, inputs, raw, res)
	}
	var runS, cpuS []float64
	pool := newPassPool()
	op := 0
	reps, err := repeat(e.seconds, 3, func(i int) error {
		runtime.GC() // no rep inherits the previous rep's garbage
		t0, c0 := time.Now(), cpuTime()
		st, err := core.Run(core.Options{ValuesPerInput: cfg.values, WithLC: true, Verify: true})
		wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		if err := checkStudy(st, err, len(inputs), &res.tally); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(e.seed*1000 + int64(i)))
		p, err := runStreamPass(cfg.probe, all.Codecs(), raw, rng, &res.tally, nil, &op)
		if err != nil || i < 0 {
			return err
		}
		if i == 0 {
			res.e2e["ratio_geomean"], res.counts["bytes_out"] = studyRatio(st)
			res.counts["ratio_geomean"] = res.e2e["ratio_geomean"]
			res.counts["lc.pipelines"] = float64(lc.PipelineCount() * 2 * len(inputs))
		}
		runS = append(runS, wall)
		cpuS = append(cpuS, cpu)
		pool.add(p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.proto["reps"] = reps
	res.e2e["run_s"] = median(runS)
	res.e2e["cpu_s"] = median(cpuS)
	res.e2e["max_rss_mb"] = maxRSSMB()
	res.e2e["ops_ok_frac"] = res.okFrac()
	if err := pool.report(res.e2e); err != nil {
		return nil, err
	}
	return res, nil
}

// checkStudy verifies one core.Run: every cell measured with a positive
// ratio (Verify already roundtripped each one), and per-file LC at least
// as good as the global LC pipeline on every input of both encodings.
// Each cell is one operation.
func checkStudy(st *core.Study, runErr error, nInputs int, t *tally) error {
	cells := nInputs * 2 * codecsPerStudy()
	if runErr != nil {
		for i := 0; i < cells; i++ {
			t.record("study cell", runErr)
		}
		return nil
	}
	if len(st.Measurements) != cells {
		return fmt.Errorf("study produced %d measurements, want %d", len(st.Measurements), cells)
	}
	global := map[core.Encoding][]float64{}
	for _, m := range st.Measurements {
		if m.Codec == "lc" {
			global[m.Encoding] = append(global[m.Encoding], m.Ratio)
			continue
		}
		var err error
		if !(m.Ratio > 0) || m.CompLen <= 0 {
			err = fmt.Errorf("%s/%s/%s: ratio %v", m.Codec, m.Input, m.Encoding, m.Ratio)
		}
		t.record("study cell", err)
	}
	for _, enc := range []core.Encoding{core.EncIEEE, core.EncPosit} {
		perFile := st.LCPerFileFloat
		if enc == core.EncPosit {
			perFile = st.LCPerFilePosit
		}
		for i, g := range global[enc] {
			var err error
			if i >= len(perFile) || perFile[i].Ratio < g {
				err = fmt.Errorf("lc %s input %d: per-file ratio below the global pipeline's %v", enc, i, g)
			}
			t.record("study lc cell", err)
		}
	}
	return nil
}

// studyRatio returns the geomean ratio over every study cell and the
// total compressed bytes.
func studyRatio(st *core.Study) (float64, float64) {
	var rs []float64
	var out float64
	for _, m := range st.Measurements {
		rs = append(rs, m.Ratio)
		out += float64(m.CompLen)
	}
	return stats.GeoMean(rs), out
}

// traceStudy drives the study's work layer by layer, as core.Run does it
// (core.Run is one call, so its inside is not visible from here):
// core.PrepareInputs, compress.Roundtrip for each registry cell on
// GOMAXPROCS workers, then per encoding lc.SearchAllMulti, SelectGlobal
// and SelectPerFile. It runs once with spans off and once with spans on;
// the difference is the tracing overhead.
func traceStudy(e *env, cfg studyConfig, inputs []*core.Input, raw []byte, res *result) error {
	_, untraced, err := studyLayers(cfg, nil, res)
	if err != nil {
		return err
	}
	c0 := cpuTime()
	search, traced, err := studyLayers(cfg, e.rec, res)
	if err != nil {
		return err
	}
	cpu := cpuTime() - c0
	res.layer["trace.overhead_s"] = (traced - untraced).Seconds()
	cells := float64(len(inputs) * 2 * codecsPerStudy())
	pipelines := float64(lc.PipelineCount() * 2 * len(inputs))
	res.layer["core.effective_cores"] = cpu.Seconds() / traced.Seconds()
	res.layer["core.cells_s"] = cells / traced.Seconds()
	res.layer["lc.search_s"] = search.Seconds()
	res.layer["lc.pipelines"] = pipelines
	res.layer["lc.pipelines_per_s"] = pipelines / search.Seconds()
	res.layer["lc.share"] = search.Seconds() / traced.Seconds()
	res.counts["lc.pipelines"] = pipelines

	op := 0
	p, err := runStreamPass(cfg.probe, all.Codecs(), raw, rand.New(rand.NewSource(e.seed*1000)), &res.tally, e.rec, &op)
	if err != nil {
		return err
	}
	streamLayers(p, res.layer)
	if err := probeLayers(e.rec, res); err != nil {
		return err
	}
	finishTrace(e.rec, res)
	return nil
}

// studyLayers is one layer-by-layer study pass. It returns the time
// spent in lc.SearchAllMulti and the pass's wall time.
func studyLayers(cfg studyConfig, rec *recorder, res *result) (search, wall time.Duration, err error) {
	t0 := time.Now()
	op := 1
	root := rec.start(nil, op, "core", "study")
	sp := rec.start(root, op, "core", "PrepareInputs")
	inputs := core.PrepareInputs(cfg.values, 0, nil)
	sp.End()

	type cell struct {
		c   compress.Codec
		in  *core.Input
		enc core.Encoding
	}
	var cells []cell
	for _, c := range all.Codecs() {
		for _, in := range inputs {
			for _, enc := range []core.Encoding{core.EncIEEE, core.EncPosit} {
				cells = append(cells, cell{c, in, enc})
			}
		}
	}
	errs := make([]error, len(cells))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	ratios := make([]float64, len(cells))
	for i, cl := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, cl cell) {
			defer wg.Done()
			defer func() { <-sem }()
			sp := rec.start(root, op, "codec", "Roundtrip."+cl.c.Name())
			data := cl.in.Bytes(cl.enc)
			n, err := compress.Roundtrip(cl.c, data)
			sp.End()
			errs[i], ratios[i] = err, compress.Ratio(len(data), n)
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		res.record("study cell (layered)", err)
	}

	for _, enc := range []core.Encoding{core.EncIEEE, core.EncPosit} {
		data := make([][]byte, len(inputs))
		for i, in := range inputs {
			data[i] = in.Bytes(enc)
		}
		sp := rec.start(root, op, "lc", "SearchAllMulti."+string(enc))
		s0 := time.Now()
		perInput, err := lc.SearchAllMulti(data)
		search += time.Since(s0)
		sp.End()
		if err != nil {
			return 0, 0, fmt.Errorf("lc search (%s): %w", enc, err)
		}
		sp = rec.start(root, op, "lc", "SelectGlobal."+string(enc))
		_, global, err := lc.SelectGlobal(perInput)
		sp.End()
		if err != nil {
			return 0, 0, fmt.Errorf("lc selection (%s): %w", enc, err)
		}
		sp = rec.start(root, op, "lc", "SelectPerFile."+string(enc))
		perFile, err := lc.SelectPerFile(perInput)
		sp.End()
		if err != nil {
			return 0, 0, fmt.Errorf("lc per-file (%s): %w", enc, err)
		}
		for i := range global {
			var err error
			if perFile[i].Ratio < global[i].Ratio {
				err = fmt.Errorf("lc %s input %d: per-file ratio %v below global %v", enc, i, perFile[i].Ratio, global[i].Ratio)
			}
			res.record("study lc cell (layered)", err)
			ratios = append(ratios, global[i].Ratio)
		}
	}
	root.End()
	res.counts["ratio_geomean"] = stats.GeoMean(ratios)
	return search, time.Since(t0), nil
}
