package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"positbench/internal/chunkcache"
	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
	"positbench/internal/core"
	"positbench/internal/stats"
)

// streamConfig sizes one stream pass: every registry codec writes one
// indexed container-v2 stream of the laid inputs, reads it back
// sequentially, and then seeded random windows are read across all the
// streams, round robin, through container.ReaderAt and a shared chunk
// cache.
type streamConfig struct {
	values         int   // float32 values per input
	chunk          int   // stream chunk size in bytes
	workers        int   // engine workers for write and read
	cacheBytes     int64 // chunk cache, much smaller than the decoded data
	windows        int   // random windows per pass, across all codecs
	winMin, winMax int   // window length bounds in bytes
}

// defaultStream is the stream workload: 256 KiB chunks, at least
// 4×nproc chunks per stream, a 4 MiB cache against ~15 MiB decoded.
func defaultStream() streamConfig {
	const chunk = 256 << 10
	values := 20480 // 28 × 80 KiB = 2.19 MiB per stream, 9 chunks
	if need := (4*runtime.NumCPU()*chunk + 28*4 - 1) / (28 * 4); need > values {
		values = need
	}
	return streamConfig{values: values, chunk: chunk, workers: runtime.NumCPU(),
		cacheBytes: 4 << 20, windows: 400, winMin: 1 << 10, winMax: 4 << 10}
}

// streamPass is one pass's measurements.
type streamPass struct {
	rawBytes       map[string]int64
	enc, dec       map[string][]time.Duration // per codec, every repeat
	streamBytes    map[string]int64           // bytes out per codec, trailer included
	winBytes       int64
	winTime        time.Duration
	winLatMS       []float64
	winChunks      int
	indexes        map[string]*container.Index
	cache          chunkcache.Stats
	engBefore, eng compress.EngineStats
}

// ratioGeomean is the geomean over codecs of raw ÷ stream bytes.
func (p *streamPass) ratioGeomean() float64 {
	var rs []float64
	for _, name := range stats.SortedKeys(p.streamBytes) {
		rs = append(rs, compress.Ratio(int(p.rawBytes[name]), int(p.streamBytes[name])))
	}
	return stats.GeoMean(rs)
}

func (p *streamPass) bytesOut() int64 {
	var n int64
	for _, b := range p.streamBytes {
		n += b
	}
	return n
}

// runStreamPass runs one pass over raw. Every full decode and every
// window is byte-compared against raw; each is one operation in t.
func runStreamPass(cfg streamConfig, codecs []compress.Codec, raw []byte, rng *rand.Rand, t *tally, rec *recorder, op *int) (*streamPass, error) {
	p := &streamPass{rawBytes: map[string]int64{}, enc: map[string][]time.Duration{},
		dec: map[string][]time.Duration{}, streamBytes: map[string]int64{},
		indexes: map[string]*container.Index{}}
	cache := chunkcache.New(cfg.cacheBytes)
	readers := make([]*container.ReaderAt, len(codecs))
	p.engBefore = compress.EngineSnapshot()
	for i, c := range codecs {
		var data []byte
		var encT, decT []time.Duration
		for r := 0; r < codecRepeats(c.Name()); r++ {
			*op++
			runtime.GC() // every write starts from a collected heap
			var encDur time.Duration
			var ix *container.Index
			var err error
			data, encDur, ix, err = writeStream(c, raw, cfg.chunk, cfg.workers, rec, *op)
			if !t.record("stream write "+c.Name(), err) {
				data = nil
				break
			}
			decDur, err := readStream(c, data, raw, cfg.workers, rec, *op)
			t.record("stream read "+c.Name(), err)
			encT, decT = append(encT, encDur), append(decT, decDur)
			p.indexes[c.Name()] = ix
		}
		if data == nil {
			continue
		}
		p.rawBytes[c.Name()] = int64(len(raw))
		p.enc[c.Name()], p.dec[c.Name()] = encT, decT
		p.streamBytes[c.Name()] = int64(len(data))

		sp := rec.start(nil, *op, "container", "NewReaderAt")
		var err error
		readers[i], err = container.NewReaderAt(bytes.NewReader(data), int64(len(data)), c,
			container.ReaderAtOptions{Workers: cfg.workers, Cache: cache})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: parsing the trailer just written: %w", c.Name(), err)
		}
	}

	buf := make([]byte, cfg.winMax)
	runtime.GC()
	for w := 0; w < cfg.windows; w++ {
		i := w % len(codecs) // round robin: every pass reads each codec's stream equally often
		n := cfg.winMin + rng.Intn(cfg.winMax-cfg.winMin+1)
		off := rng.Int63n(int64(len(raw)-n) + 1)
		if readers[i] == nil {
			t.record("window "+codecs[i].Name(), errors.New("stream was not written"))
			continue
		}
		*op++
		sp := rec.start(nil, *op, "container", "Range."+codecs[i].Name())
		t0 := time.Now()
		rr, err := readers[i].Range(off, int64(n))
		if err == nil {
			_, err = io.ReadFull(rr, buf[:n])
		}
		d := time.Since(t0)
		sp.End()
		if err == nil && !bytes.Equal(buf[:n], raw[off:off+int64(n)]) {
			err = fmt.Errorf("window [%d,+%d) differs from the raw bytes", off, n)
		}
		if t.record("window "+codecs[i].Name(), err) {
			p.winBytes += int64(n)
			p.winTime += d
			p.winLatMS = append(p.winLatMS, float64(d)/1e6)
			p.winChunks += rr.Chunks()
		}
	}
	p.eng = compress.EngineSnapshot()
	p.cache = cache.Snapshot()
	return p, nil
}

// codecRepeats is how many times a pass writes and reads each codec's
// stream. Fast codecs repeat so that each codec's time is a median over
// tens of milliseconds or more, not one few-millisecond sample; the
// counts are part of the fixed work.
func codecRepeats(name string) int {
	switch name {
	case "xz", "bzip2":
		return 1
	case "gzip", "zstd":
		return 3
	case "lz4":
		return 6
	}
	return 8
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// writeStream compresses raw into one indexed stream with the parallel
// engine and returns it with the encode wall time.
func writeStream(c compress.Codec, raw []byte, chunk, workers int, rec *recorder, op int) ([]byte, time.Duration, *container.Index, error) {
	var out bytes.Buffer
	out.Grow(len(raw) + len(raw)/8)
	sp := rec.start(nil, op, "engine", "ParallelWriter."+c.Name())
	t0 := time.Now()
	pw := compress.NewParallelWriter(c, &out, chunk, workers)
	ib := container.NewIndexBuilder()
	pw.SetIndexSink(ib)
	_, err := pw.Write(raw)
	if cerr := pw.Close(); err == nil {
		err = cerr
	}
	d := time.Since(t0)
	sp.End()
	return out.Bytes(), d, ib.Index(), err
}

// readStream decodes a stream with the parallel engine, compares it with
// raw and returns the decode wall time.
func readStream(c compress.Codec, data, raw []byte, workers int, rec *recorder, op int) (time.Duration, error) {
	var out bytes.Buffer
	out.Grow(len(raw))
	sp := rec.start(nil, op, "engine", "ParallelReader."+c.Name())
	t0 := time.Now()
	pr := compress.NewParallelReader(c, bytes.NewReader(data), workers)
	_, err := io.Copy(&out, pr)
	if cerr := pr.Close(); err == nil {
		err = cerr
	}
	d := time.Since(t0)
	sp.End()
	if err == nil && !bytes.Equal(out.Bytes(), raw) {
		err = errors.New("full decode differs from the raw stream")
	}
	return d, err
}

// runStream is the stream workload.
func runStream(e *env) (*result, error) {
	return streamWorkload(e, defaultStream())
}

func streamWorkload(e *env, cfg streamConfig) (*result, error) {
	res := newResult()
	var raw []byte
	_ = timedSetup(e, res, func() error { // this set-up cannot fail
		raw = laid(core.PrepareInputs(cfg.values, 0, nil))
		return nil
	})
	if e.setupOnly {
		return res, nil
	}
	res.proto["values_per_input"] = cfg.values
	res.proto["chunk_bytes"] = cfg.chunk
	res.proto["workers"] = cfg.workers
	res.proto["cache_bytes"] = cfg.cacheBytes
	res.proto["windows_per_rep"] = cfg.windows
	res.proto["raw_bytes_per_stream"] = len(raw)
	if len(raw) < cfg.winMax {
		return nil, fmt.Errorf("stream input is %d bytes, shorter than a window", len(raw))
	}

	if e.rec != nil {
		return res, traceStream(e, cfg, raw, res)
	}
	var runS, cpuS []float64
	pool := newPassPool()
	var first *streamPass
	op := 0
	reps, err := repeat(e.seconds, 3, func(i int) error {
		rng := rand.New(rand.NewSource(e.seed*1000 + int64(i)))
		t0, c0 := time.Now(), cpuTime()
		p, err := runStreamPass(cfg, all.Codecs(), raw, rng, &res.tally, nil, &op)
		if err != nil || i < 0 {
			return err
		}
		runS = append(runS, time.Since(t0).Seconds())
		cpuS = append(cpuS, (cpuTime() - c0).Seconds())
		pool.add(p)
		if first == nil {
			first = p
		}
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
	res.e2e["ratio_geomean"] = first.ratioGeomean()
	if err := pool.report(res.e2e); err != nil {
		return nil, err
	}
	passCounts(first, res.counts)
	return res, nil
}

// passPool pools the samples of every timed pass of a run: each codec's
// write and read times, and the random windows.
type passPool struct {
	raw      map[string]int64
	enc, dec map[string][]time.Duration
	winBytes int64
	winTime  time.Duration
	winLatMS []float64
}

func newPassPool() *passPool {
	return &passPool{raw: map[string]int64{}, enc: map[string][]time.Duration{},
		dec: map[string][]time.Duration{}}
}

func (w *passPool) add(p *streamPass) {
	for name, b := range p.rawBytes {
		w.raw[name] = b
		w.enc[name] = append(w.enc[name], p.enc[name]...)
		w.dec[name] = append(w.dec[name], p.dec[name]...)
	}
	w.winBytes += p.winBytes
	w.winTime += p.winTime
	w.winLatMS = append(w.winLatMS, p.winLatMS...)
}

// report sets encode_mb_s and decode_mb_s (geomean over codecs of raw
// bytes ÷ the codec's median time), range_mb_s (mean-based: hits and
// misses make per-window latency bimodal), the window rate and the
// window latency percentiles.
func (w *passPool) report(e2e map[string]float64) error {
	enc, dec := map[string]time.Duration{}, map[string]time.Duration{}
	for name := range w.raw {
		enc[name], dec[name] = medianDur(w.enc[name]), medianDur(w.dec[name])
	}
	e2e["encode_mb_s"] = geomeanMBs(w.raw, enc)
	e2e["decode_mb_s"] = geomeanMBs(w.raw, dec)
	e2e["range_mb_s"] = mbPerS(w.winBytes, w.winTime)
	e2e["serve_ops_s"] = float64(len(w.winLatMS)) / w.winTime.Seconds()
	var err error
	if e2e["serve_p50_ms"], err = percentile(w.winLatMS, 0.50); err != nil {
		return err
	}
	e2e["serve_p99_ms"], err = percentile(w.winLatMS, 0.99)
	return err
}

// passCounts records a pass's exact-replay counts.
func passCounts(p *streamPass, counts map[string]float64) {
	counts["ratio_geomean"] = p.ratioGeomean()
	counts["bytes_out"] = float64(p.bytesOut())
	counts["compress_chunks"] = float64(p.eng.CompressChunks - p.engBefore.CompressChunks)
	counts["decompress_chunks"] = float64(p.eng.DecompressChunks - p.engBefore.DecompressChunks)
	counts["range_chunks"] = float64(p.eng.RangeChunks - p.engBefore.RangeChunks)
	counts["sched_submitted"] = float64(p.eng.SchedSubmitted - p.engBefore.SchedSubmitted)
	counts["sched_executed"] = float64(p.eng.SchedLocalHits - p.engBefore.SchedLocalHits +
		p.eng.SchedSteals - p.engBefore.SchedSteals)
	counts["cache_lookups"] = float64(p.cache.Lookups)
	counts["cache_hits_plus_misses"] = float64(p.cache.Hits + p.cache.Misses)
	counts["cache_hits"] = float64(p.cache.Hits)
	counts["windows"] = float64(len(p.winLatMS))
}

// traceStream is the traced stream run: one untraced pass and one traced
// pass of the same work (their difference is the tracing overhead), plus
// a workers=1 pass for the engine speedup and the layer probes.
func traceStream(e *env, cfg streamConfig, raw []byte, res *result) error {
	op := 0
	seedRng := func() *rand.Rand { return rand.New(rand.NewSource(e.seed * 1000)) }
	t0 := time.Now()
	if _, err := runStreamPass(cfg, all.Codecs(), raw, seedRng(), &res.tally, nil, &op); err != nil {
		return err
	}
	untraced := time.Since(t0).Seconds()

	t0, c0 := time.Now(), cpuTime()
	p, err := runStreamPass(cfg, all.Codecs(), raw, seedRng(), &res.tally, e.rec, &op)
	if err != nil {
		return err
	}
	traced := time.Since(t0).Seconds()
	cpu := (cpuTime() - c0).Seconds()
	passCounts(p, res.counts)
	streamLayers(p, res.layer)
	res.layer["core.effective_cores"] = cpu / traced
	res.layer["trace.overhead_s"] = traced - untraced

	serial := cfg
	serial.workers, serial.windows = 1, 0
	s, err := runStreamPass(serial, all.Codecs(), raw, seedRng(), &res.tally, nil, &op)
	if err != nil {
		return err
	}
	res.layer["engine.encode_speedup"] = stats.GeoMean(speedups(s.enc, p.enc))
	res.layer["engine.decode_speedup"] = stats.GeoMean(speedups(s.dec, p.dec))

	if err := probeLayers(e.rec, res); err != nil {
		return err
	}
	finishTrace(e.rec, res)
	return nil
}

// streamLayers fills the engine, container and cache metrics of a pass.
func streamLayers(p *streamPass, layer map[string]float64) {
	d := func(a, b int64) float64 { return float64(b - a) }
	chunks := d(p.engBefore.CompressChunks, p.eng.CompressChunks) + d(p.engBefore.DecompressChunks, p.eng.DecompressChunks)
	layer["engine.chunks"] = chunks
	if chunks > 0 {
		layer["engine.queue_wait_us_per_chunk"] = d(p.engBefore.QueueWaitNS, p.eng.QueueWaitNS) / 1e3 / chunks
	}
	if sub := d(p.engBefore.SchedSubmitted, p.eng.SchedSubmitted); sub > 0 {
		layer["engine.steal_frac"] = d(p.engBefore.SchedSteals, p.eng.SchedSteals) / sub
	}
	var total, payload, trailer float64
	for _, ix := range p.indexes {
		total += float64(ix.DataLen + ix.TrailerLen)
		trailer += float64(ix.TrailerLen)
		for _, c := range ix.Chunks {
			payload += float64(c.CompLen)
		}
	}
	if total > 0 {
		layer["container.frame_overhead_pct"] = (total - trailer - payload) / total * 100
		layer["container.trailer_pct"] = trailer / total * 100
	}
	if n := len(p.winLatMS); n > 0 {
		layer["container.range_chunks_per_read"] = float64(p.winChunks) / float64(n)
		layer["container.range_amplification"] = d(p.engBefore.RangeBytesOut, p.eng.RangeBytesOut) / float64(p.winBytes)
		layer["container.range_p50_ms"] = median(p.winLatMS)
	}
	if p.cache.Lookups > 0 {
		layer["chunkcache.hit_rate"] = float64(p.cache.Hits) / float64(p.cache.Lookups)
	}
	layer["chunkcache.evictions"] = float64(p.cache.Evictions)
	layer["chunkcache.coalesced"] = float64(p.cache.Coalesced)
}

// speedups returns serial ÷ parallel median time per codec.
func speedups(serial, parallel map[string][]time.Duration) []float64 {
	var out []float64
	for _, name := range stats.SortedKeys(serial) {
		if p := medianDur(parallel[name]); p > 0 {
			out = append(out, float64(medianDur(serial[name]))/float64(p))
		}
	}
	return out
}

// finishTrace adds the per-layer self times and the span count.
func finishTrace(rec *recorder, res *result) {
	for layer, s := range rec.selfTimes() {
		if _, ok := res.layer[layer+".self_s"]; ok {
			res.layer[layer+".self_s"] = s
		}
	}
	res.layer["trace.spans"] = float64(rec.count())
}
