package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/core"
)

func TestPercentileRefusesFewSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 100 samples: p99 is the 99th, with one sample beyond it.
	if _, err := percentile(xs, 0.99); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of 100 samples: err = %v, want errFewSamples", err)
	}
	if v, err := percentile(xs, 0.50); err != nil || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	// 1100 samples: p99 is the 1089th, with 11 beyond it.
	xs = make([]float64, 1100)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // unsorted input
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 1089 {
		t.Fatalf("p99 of 1..1100 = %v, %v; want 1089", v, err)
	}
	// The edge: exactly minBeyond beyond is enough, one fewer is not.
	if _, err := percentileIndex(20, 0.5); err != nil {
		t.Fatalf("p50 of 20 (10 beyond): %v", err)
	}
	if _, err := percentileIndex(19, 0.5); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of 19 (9 beyond): err = %v, want errFewSamples", err)
	}
	if _, err := percentileIndex(0, 0.5); err == nil {
		t.Fatal("percentile of no samples succeeded")
	}
}

func TestGeomeanMBs(t *testing.T) {
	b := map[string]int64{"fast": 40e6, "slow": 10e6}
	d := map[string]time.Duration{"fast": time.Second, "slow": time.Second}
	if got := geomeanMBs(b, d); math.Abs(got-20) > 1e-9 {
		t.Fatalf("geomean of 40 and 10 MB/s = %v, want 20", got)
	}
	// Each codec weighs equally: doubling the fast codec's bytes moves the
	// geomean by sqrt(2), not by its byte share.
	b["fast"] = 80e6
	if got := geomeanMBs(b, d); math.Abs(got-20*math.Sqrt2) > 1e-9 {
		t.Fatalf("geomean of 80 and 10 MB/s = %v, want %v", got, 20*math.Sqrt2)
	}
	d["slow"] = 0
	if got := geomeanMBs(b, d); got != 0 {
		t.Fatalf("geomean with an unmeasured codec = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestCPUTimeFromGetrusage(t *testing.T) {
	c0, t0 := cpuTime(), time.Now()
	x := 1.0
	for time.Since(t0) < 150*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	busy := cpuTime() - c0
	wall := time.Since(t0)
	if busy < 75*time.Millisecond || busy > wall+50*time.Millisecond {
		t.Fatalf("spinning %v of wall time used %v of CPU (x=%v)", wall, busy, x)
	}
	c0 = cpuTime()
	time.Sleep(150 * time.Millisecond)
	if idle := cpuTime() - c0; idle > 50*time.Millisecond {
		t.Fatalf("sleeping 150ms used %v of CPU", idle)
	}
	if maxRSSMB() <= 0 {
		t.Fatal("peak RSS not reported")
	}
}

func TestTallyBookkeeping(t *testing.T) {
	var tl tally
	rng := rand.New(rand.NewSource(7))
	failed := 0
	for i := 0; i < 1000; i++ {
		var err error
		if rng.Intn(10) == 0 {
			err = errors.New("mismatch")
			failed++
		}
		tl.record("op", err)
	}
	if tl.attempted != tl.ok+tl.failed || tl.attempted != 1000 || tl.failed != failed {
		t.Fatalf("attempted %d, ok %d, failed %d; want 1000 = ok + %d", tl.attempted, tl.ok, tl.failed, failed)
	}
	if want := float64(1000-failed) / 1000; tl.okFrac() != want {
		t.Fatalf("okFrac = %v, want %v", tl.okFrac(), want)
	}
	if exitCode(&result{tally: tl}) != 1 {
		t.Fatal("a run with failures must exit non-zero")
	}
	if exitCode(&result{tally: tally{attempted: 3, ok: 3}}) != 0 {
		t.Fatal("a clean run must exit zero")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Layer: "core", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "codec", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "codec", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Layer: "lc", Start: 90, End: 120},   // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"core": 50e-9, "codec": 50e-9, "lc": 30e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
	var r *recorder // spans off: every call is a no-op
	r.start(nil, 1, "core", "x").End()
	if r.count() != 0 || r.selfTimes() != nil {
		t.Fatal("nil recorder recorded spans")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric names and
// units in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
}

// badCodec flips every decoded byte: a faked wrong output.
type badCodec struct{ compress.Codec }

func (b badCodec) Decompress(comp []byte) ([]byte, error) {
	out, err := b.Codec.Decompress(comp)
	if err == nil {
		out = append([]byte(nil), out...)
		for i := range out {
			out[i] ^= 1
		}
	}
	return out, err
}

func tinyStream() streamConfig {
	return streamConfig{values: 2048, chunk: 16 << 10, workers: 2,
		cacheBytes: 256 << 10, windows: 400, winMin: 1 << 10, winMax: 4 << 10}
}

func TestWrongStreamByteFails(t *testing.T) {
	raw := laid(core.PrepareInputs(256, 0, nil))
	lz4, err := all.Get("lz4")
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	op := 0
	cfg := tinyStream()
	cfg.chunk = 4 << 10
	if _, err := runStreamPass(cfg, []compress.Codec{badCodec{lz4}}, raw, rand.New(rand.NewSource(1)), &tl, nil, &op); err != nil {
		t.Fatal(err)
	}
	// Writes verify nothing; every full read and every window do.
	if writes := codecRepeats("lz4"); tl.failed != tl.attempted-writes || tl.failed == 0 {
		t.Fatalf("attempted %d, failed %d: every decode of a corrupting codec must fail", tl.attempted, tl.failed)
	}
	if exitCode(&result{tally: tl}) == 0 {
		t.Fatal("the run would exit 0")
	}
}

func TestStreamReplayExact(t *testing.T) {
	run := func() *result {
		res, err := streamWorkload(&env{seed: 42, seconds: 0.01}, tinyStream())
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d of %d operations failed", res.failed, res.attempted)
		}
		return res
	}
	a, b := run(), run()
	for _, k := range []string{"ratio_geomean", "bytes_out", "compress_chunks", "decompress_chunks",
		"range_chunks", "sched_submitted", "cache_lookups", "cache_hits", "windows"} {
		if a.counts[k] != b.counts[k] || a.counts[k] == 0 {
			t.Errorf("%s: %v then %v, want equal and non-zero", k, a.counts[k], b.counts[k])
		}
	}
	for _, r := range []*result{a, b} {
		if r.counts["sched_submitted"] != r.counts["sched_executed"] {
			t.Errorf("scheduler: submitted %v, local hits + steals %v", r.counts["sched_submitted"], r.counts["sched_executed"])
		}
		if r.counts["cache_lookups"] != r.counts["cache_hits_plus_misses"] {
			t.Errorf("cache: lookups %v, hits + misses %v", r.counts["cache_lookups"], r.counts["cache_hits_plus_misses"])
		}
	}
}

func TestStudyReplayExact(t *testing.T) {
	cfg := studyConfig{values: 64, probe: tinyStream()}
	cfg.probe.values, cfg.probe.chunk, cfg.probe.winMin, cfg.probe.winMax = 64, 1<<10, 256, 1<<10
	run := func() *result {
		res, err := studyWorkload(&env{seed: 3, seconds: 0.01}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d of %d operations failed", res.failed, res.attempted)
		}
		return res
	}
	a, b := run(), run()
	for _, k := range []string{"ratio_geomean", "lc.pipelines", "bytes_out"} {
		if a.counts[k] != b.counts[k] || a.counts[k] == 0 {
			t.Errorf("%s: %v then %v, want equal and non-zero", k, a.counts[k], b.counts[k])
		}
	}
}

// tinyServe keeps the real request sizes, so the classes separate as they
// do at full scale, with fewer objects.
func tinyServe() serveConfig {
	cfg := defaultServe()
	cfg.objects, cfg.block, cfg.seqBlocks = 6, 500, 5
	return cfg
}

func TestServeReplayExact(t *testing.T) {
	run := func() *result {
		res, err := serveWorkload(&env{seed: 9, seconds: 0.01}, tinyServe())
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d of %d requests failed", res.failed, res.attempted)
		}
		return res
	}
	a, b := run(), run()
	for _, k := range []string{"ratio_geomean", "bytes_out", "cache_lookups", "cache_hits", "p50_class", "p99_class"} {
		if a.counts[k] != b.counts[k] {
			t.Errorf("%s: %v then %v, want equal", k, a.counts[k], b.counts[k])
		}
	}
	if a.proto["p50_class"] != "read" || a.proto["p99_class"] != "auto" {
		t.Errorf("p50 sample is a %v request, p99 a %v request; want read and auto", a.proto["p50_class"], a.proto["p99_class"])
	}
	for _, r := range []*result{a, b} {
		if r.counts["cache_lookups"] == 0 || r.counts["cache_lookups"] != r.counts["cache_hits_plus_misses"] {
			t.Errorf("cache: lookups %v, hits + misses %v", r.counts["cache_lookups"], r.counts["cache_hits_plus_misses"])
		}
	}
}

// corruptingProxy forwards to target and flips one byte in the middle of
// every response body: a faked bad response.
func corruptingProxy(t *testing.T, target string) *httptest.Server {
	client := &http.Client{}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := http.NewRequest(r.Method, target+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := client.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if len(out) > 0 {
			out[len(out)/2] ^= 0x20
		}
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(out)
	}))
}

func TestWrongServeByteFails(t *testing.T) {
	cfg := tinyServe()
	fx, err := newServeFixture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.stop()
	proxy := corruptingProxy(t, fx.gwURL)
	defer proxy.Close()
	seq := serveSequence(cfg, 5, len(fx.src))
	seen := map[string]bool{}
	var tl tally
	loop := &serveLoop{}
	for i, r := range seq[:200] {
		loop.do(fx, proxy.URL, r, &tl, nil, i)
		seen[r.class] = true
	}
	if len(seen) != len(serveMix) {
		t.Fatalf("the first 200 requests cover %d classes, want %d", len(seen), len(serveMix))
	}
	if tl.failed != tl.attempted {
		t.Fatalf("%d of %d corrupted responses passed verification", tl.attempted-tl.failed, tl.attempted)
	}
	if exitCode(&result{tally: tl}) == 0 {
		t.Fatal("the run would exit 0")
	}
}
