// Command perfbench is the repository benchmark. It drives three
// workloads from outside the program — the paper's study, indexed
// container streams, and the positgw → positd service — by calling each
// module's public functions and reading the counters the modules export.
//
//	perfbench --workload study|stream|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer, reads the engine, cache,
// positd and positgw counters before and after, and prints the per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the line before it records
// the host and protocol. Any wrong output byte makes the run exit 1.
// See README.md for the workloads, the metric map and the noise notes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// mirror BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON keeps them in
// step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"ops_ok_frac", "frac"},
	{"ratio_geomean", "x"},
	{"encode_mb_s", "MB/s"},
	{"decode_mb_s", "MB/s"},
	{"range_mb_s", "MB/s"},
	{"serve_ops_s", "1/s"},
	{"serve_p50_ms", "ms"},
	{"serve_p99_ms", "ms"},
}

// serveClasses are the request classes of the serve workload, in the
// order they are reported.
var serveClasses = []string{"read", "compress", "decompress", "convert", "put", "auto"}

// layerCodecs are the registry codecs, in registry order.
var layerCodecs = []string{"bzip2", "gzip", "lz4", "xz", "zstd", "fpc32", "fpc-posit"}

// selfLayers are the span layers whose self time a traced run reports.
var selfLayers = []string{"core", "lc", "posit", "codec", "engine", "container", "server", "gateway"}

var perLayer = func() []metricDef {
	d := []metricDef{
		{"core.effective_cores", "cores"},
		{"core.cells_s", "1/s"},
		{"lc.search_s", "s"},
		{"lc.pipelines", "count"},
		{"lc.pipelines_per_s", "1/s"},
		{"lc.share", "frac"},
		{"posit.encode_mvals_s", "Mval/s"},
		{"posit.decode_mvals_s", "Mval/s"},
		{"posit.stats_s", "s"},
	}
	for _, c := range layerCodecs {
		d = append(d,
			metricDef{"codec." + c + ".encode_mb_s", "MB/s"},
			metricDef{"codec." + c + ".decode_mb_s", "MB/s"},
			metricDef{"codec." + c + ".ratio", "x"})
	}
	d = append(d,
		metricDef{"engine.encode_speedup", "x"},
		metricDef{"engine.decode_speedup", "x"},
		metricDef{"engine.queue_wait_us_per_chunk", "us"},
		metricDef{"engine.steal_frac", "frac"},
		metricDef{"engine.chunks", "count"},
		metricDef{"container.frame_overhead_pct", "%"},
		metricDef{"container.trailer_pct", "%"},
		metricDef{"container.range_chunks_per_read", "count"},
		metricDef{"container.range_amplification", "x"},
		metricDef{"container.range_p50_ms", "ms"},
		metricDef{"chunkcache.hit_rate", "frac"},
		metricDef{"chunkcache.evictions", "count"},
		metricDef{"chunkcache.coalesced", "count"},
	)
	for _, c := range serveClasses {
		d = append(d, metricDef{"server." + c + ".p50_ms", "ms"})
	}
	d = append(d,
		metricDef{"server.shed_429", "count"},
		metricDef{"gateway.hop_p50_ms", "ms"},
		metricDef{"gateway.retries", "count"},
		metricDef{"gateway.hedges", "count"},
	)
	for _, l := range selfLayers {
		d = append(d, metricDef{l + ".self_s", "s"})
	}
	return append(d,
		metricDef{"trace.overhead_s", "s"},
		metricDef{"trace.spans", "count"},
	)
}()

// env is what every workload receives.
type env struct {
	seed    int64
	seconds float64
	rec     *recorder // nil unless --trace 1
	// setups are the set-up times of the extra set-up rounds, each timed
	// in a fresh child process so this process's peak RSS reflects one
	// set-up; setup_s is the median of these and the workload's own.
	setups    []float64
	setupOnly bool // time the set-up, then stop (a child round)
}

// setupRounds is how many complete set-ups a run times for setup_s.
var setupRounds = map[string]int{"study": 9, "stream": 3, "serve": 3}

// result is one workload's outcome.
type result struct {
	tally
	e2e    map[string]float64 // end-to-end metrics (untraced run)
	layer  map[string]float64 // per-layer metrics (traced run)
	counts map[string]float64 // exact-replay counts (same seed, same values)
	proto  map[string]any     // workload part of the protocol record
}

func newResult() *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{},
		counts: map[string]float64{}, proto: map[string]any{}}
	for _, m := range perLayer {
		r.layer[m.name] = 0 // a layer the workload does not exercise reads 0
	}
	return r
}

// workloads maps --workload names to their drivers.
var workloads = map[string]func(*env) (*result, error){
	"study":  runStudy,
	"stream": runStream,
	"serve":  runServe,
}

func main() {
	workload := flag.String("workload", "", "study, stream or serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("trace-dir", ".bench_build", "directory for the span dump of a traced run")
	setupOnly := flag.Bool("setup-only", false, "time one set-up, print it and exit (an extra set-up round)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload study|stream|serve, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, setupOnly: *setupOnly}
	if *traced == 1 {
		e.rec = newRecorder()
	}
	if !*setupOnly && e.rec == nil { // a traced run reports no setup_s
		var err error
		if e.setups, err = childSetups(*workload, setupRounds[*workload]-1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: set-up round: %v\n", *workload, err)
			os.Exit(1)
		}
	}
	res, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *setupOnly {
		fmt.Println(strconv.FormatFloat(res.e2e["setup_s"], 'g', -1, 64))
		return
	}
	if e.rec != nil {
		path := filepath.Join(*out, fmt.Sprintf("perfbench-trace-%s-%d.json", *workload, *seed))
		if err := e.rec.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := report(*workload, e, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	w.Write(line)
	w.Flush()
	os.Exit(exitCode(res))
}

// exitCode is 1 when any operation failed verification, else 0.
func exitCode(res *result) int {
	if res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders the protocol record and the result line (the last line
// of standard output).
func report(workload string, e *env, res *result) ([]byte, error) {
	defs, vals := endToEnd, res.e2e
	if e.rec != nil {
		defs, vals = perLayer, res.layer
	}
	known := map[string]bool{}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := vals[d.name]
		if !ok || (e.rec == nil && !(v > 0)) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	proto := hostRecord()
	proto["workload"] = workload
	proto["seed"] = e.seed
	proto["seconds"] = e.seconds
	proto["traced"] = e.rec != nil
	for k, v := range res.proto {
		proto[k] = v
	}
	proto["replay_counts"] = res.counts
	protoLine, err := json.Marshal(map[string]any{"protocol": proto})
	if err != nil {
		return nil, err
	}
	resLine, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return nil, err
	}
	return append(append(append(protoLine, '\n'), resLine...), '\n'), nil
}

// hostRecord is the host part of the protocol record.
func hostRecord() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"recorded":   time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" off
// Linux).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repeat runs the workload's fixed work once as an unrecorded warm-up
// (i = -1: heap growth and lazy set-up land there), then rep by rep while
// one more rep of the mean length still fits the measurement time (and at
// least minReps times), so every figure is a median or a pool over reps
// rather than one sample.
func repeat(seconds float64, minReps int, rep func(i int) error) (int, error) {
	if err := rep(-1); err != nil {
		return 0, err
	}
	start := time.Now()
	i := 0
	for ; i < minReps || time.Since(start).Seconds()*float64(i+1)/float64(i) <= seconds; i++ {
		if err := rep(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// timedSetup runs the workload's set-up once and sets setup_s to the
// median of its time and the child rounds' times.
func timedSetup(e *env, res *result, setup func() error) error {
	t0 := time.Now()
	if err := setup(); err != nil {
		return err
	}
	rounds := append(e.setups, time.Since(t0).Seconds())
	res.e2e["setup_s"] = median(rounds)
	res.proto["setup_rounds_s"] = rounds
	return nil
}

// childSetups times n extra set-ups of workload, each in a fresh child
// process that is waited for.
func childSetups(workload string, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ts []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, err
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("child set-up printed %q: %w", out, err)
		}
		ts = append(ts, t)
	}
	return ts, nil
}
