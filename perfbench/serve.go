package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
	"positbench/internal/core"
	"positbench/internal/gateway"
	"positbench/internal/lc"
	"positbench/internal/posit"
	"positbench/internal/server"
	"positbench/internal/stats"
)

// serveConfig sizes the serve workload.
type serveConfig struct {
	values           int    // per input of the body and object source
	objects          int    // object keys
	objectBytes      int    // decoded bytes per object
	objChunks        [2]int // chunk sizes of an object's two versions
	bodyMin, bodyMax int    // compress/convert/auto body bounds
	decompPool       int    // precompressed decompress bodies
	decompBytes      int    // raw bytes behind each decompress body
	winMin, winMax   int    // read window bounds
	seqBlocks        int    // blocks in the seeded request sequence, cycled
	block            int    // requests per block, a multiple of 100
	zipfS            float64
}

// defaultServe puts ~24 MiB of decoded objects behind positd's default
// 64 MiB chunk cache, so reads after warm-up mostly hit.
func defaultServe() serveConfig {
	return serveConfig{values: 65536, objects: 24, objectBytes: 1 << 20,
		objChunks: [2]int{64 << 10, 48 << 10}, bodyMin: 64 << 10, bodyMax: 256 << 10,
		decompPool: 32, decompBytes: 256 << 10, winMin: 16 << 10, winMax: 64 << 10,
		seqBlocks: 8, block: 1000, zipfS: 1.2}
}

// serveMix is the request mix in percent, by class. Reads dominate so
// the p50 sample is a read; PUT re-uploads of whole objects are the
// slowest class and, at 4 %, hold the p99 sample.
var serveMix = []struct {
	class string
	pct   int
}{{"read", 60}, {"compress", 15}, {"decompress", 10}, {"convert", 8}, {"put", 4}, {"auto", 3}}

// serveCodecs are the codecs the service requests use; xz and bzip2 are
// left to the stream workload so they do not drown the HTTP layers.
var serveCodecs = []string{"lz4", "gzip", "fpc32", "fpc-posit"}

// serveReq is one request of the seeded sequence.
type serveReq struct {
	class string
	key   int   // read, put
	off   int64 // read window or body offset into the source
	n     int   // read window or body length
	codec string
	pool  int // decompress body
}

// serveObject is one stored object: its decoded content and the two
// compressed versions PUT alternates between (different chunk sizes, so
// a re-upload brings new chunk hashes).
type serveObject struct {
	key      string
	content  []byte
	versions [2][]byte
	metas    [2]objectMeta // what positd must answer to each version's PUT
	current  int
}

// objectMeta is the JSON document a PUT answers with.
type objectMeta struct {
	Key        string `json:"key"`
	Bytes      int64  `json:"bytes"`
	Codec      string `json:"codec"`
	Indexed    bool   `json:"indexed"`
	Chunks     int    `json:"chunks"`
	RawLen     int64  `json:"raw_len"`
	TrailerLen int64  `json:"trailer_len"`
}

type servePoolItem struct {
	raw, comp []byte
	codec     string
}

// serveFixture is everything set-up builds: the inputs, objects and the
// in-process positd and positgw on loopback listeners.
type serveFixture struct {
	src     []byte
	objects []*serveObject
	pool    []servePoolItem
	srvURL  string
	gwURL   string
	client  *http.Client
	stop    func()
}

func runServe(e *env) (*result, error) { return serveWorkload(e, defaultServe()) }

func serveWorkload(e *env, cfg serveConfig) (*result, error) {
	res := newResult()
	var fx *serveFixture
	err := timedSetup(e, res, func() error {
		var err error
		fx, err = newServeFixture(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer fx.stop()
	if e.setupOnly {
		return res, nil
	}
	res.proto["values_per_input"] = cfg.values
	res.proto["objects"] = cfg.objects
	res.proto["object_bytes"] = cfg.objectBytes
	res.proto["object_chunk_bytes"] = cfg.objChunks
	res.proto["chunk_cache_bytes"] = server.DefaultChunkCacheBytes
	res.proto["body_bytes"] = []int{cfg.bodyMin, cfg.bodyMax}
	res.proto["window_bytes"] = []int{cfg.winMin, cfg.winMax}
	mix := map[string]int{}
	for _, m := range serveMix {
		mix[m.class] = m.pct
	}
	res.proto["mix_pct"] = mix
	res.proto["loop"] = "closed, one client connection"

	seq := serveSequence(cfg, e.seed, len(fx.src))
	if e.rec != nil {
		return res, traceServe(e, cfg, fx, seq, res)
	}

	var runS, cpuS []float64
	var all []sample
	var first *serveLoop
	var before metricsDoc
	// Block i runs sequence positions (i+1)·block onwards; the warm-up
	// (i = -1) takes the first block.
	blocks, err := repeat(e.seconds, 3, func(i int) error {
		if i == 0 {
			var err error
			if before, err = fx.metrics(fx.srvURL); err != nil {
				return err
			}
		}
		loop := &serveLoop{}
		t0, c0 := time.Now(), cpuTime()
		for j := 0; j < cfg.block; j++ {
			pos := (i+1)*cfg.block + j
			loop.do(fx, fx.gwURL, seq[pos%len(seq)], &res.tally, nil, pos)
		}
		if i < 0 {
			return nil
		}
		runS = append(runS, time.Since(t0).Seconds())
		cpuS = append(cpuS, (cpuTime() - c0).Seconds())
		if i == 0 {
			first = loop
			after, err := fx.metrics(fx.srvURL)
			if err != nil {
				return err
			}
			cacheCounts(before, after, res.counts)
		}
		all = append(all, loop.samples...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.proto["blocks"] = blocks
	res.proto["requests"] = len(all)
	res.e2e["run_s"] = median(runS)
	res.e2e["cpu_s"] = median(cpuS)
	res.e2e["max_rss_mb"] = maxRSSMB()
	res.e2e["ops_ok_frac"] = res.okFrac()
	res.e2e["ratio_geomean"] = ratioGeomean(first.ratios)
	whole := &serveLoop{samples: all}
	res.e2e["encode_mb_s"] = whole.classMBs("compress")
	res.e2e["decode_mb_s"] = whole.classMBs("decompress")
	res.e2e["range_mb_s"] = whole.classMBs("read")
	var busy float64
	for _, s := range all {
		busy += s.ms / 1e3
	}
	res.e2e["serve_ops_s"] = float64(len(all)) / busy
	p50, c50, err := classPercentile(all, 0.50)
	if err != nil {
		return nil, err
	}
	p99, c99, err := classPercentile(all, 0.99)
	if err != nil {
		return nil, err
	}
	res.e2e["serve_p50_ms"], res.e2e["serve_p99_ms"] = p50, p99
	res.proto["p50_class"], res.proto["p99_class"] = c50, c99
	res.counts["ratio_geomean"] = res.e2e["ratio_geomean"]
	res.counts["bytes_out"] = float64(first.bytesOut)
	res.counts["p50_class"] = float64(classIndex(c50))
	res.counts["p99_class"] = float64(classIndex(c99))
	return res, nil
}

func classIndex(c string) int {
	for i, m := range serveMix {
		if m.class == c {
			return i
		}
	}
	return -1
}

// serveSequence draws the seeded request sequence, block by block.
// Every block holds exactly the mix's count of each class, in seeded
// order, and is stratified the same way: the j-th body request of a class
// in a block takes its body from laid input j mod 28 and (for compress)
// codec j/28 mod 4, so the first 112 compress requests of a block cover
// each input × codec pair once. Blocks then cost the same work, and the
// ratio and MB/s figures depend little on the seed, which picks the
// order, keys, windows, body offsets and sizes.
func serveSequence(cfg serveConfig, seed int64, srcLen int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.objects-1))
	region := srcLen / 28
	var seq []serveReq
	for b := 0; b < cfg.seqBlocks; b++ {
		var classes []string
		for _, m := range serveMix {
			for i := 0; i < m.pct*cfg.block/100; i++ {
				classes = append(classes, m.class)
			}
		}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		perClass := map[string]int{}
		for _, class := range classes {
			r := serveReq{class: class}
			j := perClass[class]
			perClass[class]++
			switch class {
			case "read":
				r.key = int(zipf.Uint64())
				r.n = cfg.winMin + rng.Intn(cfg.winMax-cfg.winMin+1)
				r.off = rng.Int63n(int64(cfg.objectBytes-r.n) + 1)
			case "put":
				r.key = rng.Intn(cfg.objects)
			case "decompress":
				r.pool = rng.Intn(cfg.decompPool)
			default: // compress, convert, auto: a 4-byte aligned body slice
				r.n = min(cfg.bodyMin+rng.Intn(cfg.bodyMax-cfg.bodyMin+1), region) &^ 3
				r.off = int64(j%28*region) + rng.Int63n(int64(region-r.n)+1)&^3
				r.codec = serveCodecs[j/28%len(serveCodecs)]
			}
			seq = append(seq, r)
		}
	}
	return seq
}

// newServeFixture builds the objects and bodies, starts positd and
// positgw on loopback, uploads every object through the gateway and
// reads each back whole to warm the cache.
func newServeFixture(cfg serveConfig) (*serveFixture, error) {
	fx := &serveFixture{src: laid(core.PrepareInputs(cfg.values, 0, nil))}
	if len(fx.src) < cfg.objectBytes+cfg.bodyMax {
		return nil, fmt.Errorf("serve source is %d bytes, too short", len(fx.src))
	}
	stride := (len(fx.src) - cfg.objectBytes) / cfg.objects &^ 3
	for k := 0; k < cfg.objects; k++ {
		c, err := all.Get(serveCodecs[k%len(serveCodecs)])
		if err != nil {
			return nil, err
		}
		o := &serveObject{key: "obj-" + strconv.Itoa(k), content: fx.src[k*stride : k*stride+cfg.objectBytes]}
		for v, chunk := range cfg.objChunks {
			data, _, ix, err := writeStream(c, o.content, chunk, 1, nil, 0)
			if err != nil {
				return nil, err
			}
			o.versions[v] = data
			o.metas[v] = objectMeta{Key: o.key, Bytes: int64(len(data)), Codec: c.Name(), Indexed: true,
				Chunks: len(ix.Chunks), RawLen: ix.RawLen, TrailerLen: ix.TrailerLen}
		}
		fx.objects = append(fx.objects, o)
	}
	for i := 0; i < cfg.decompPool; i++ {
		name := serveCodecs[i%len(serveCodecs)]
		c, err := all.Get(name)
		if err != nil {
			return nil, err
		}
		off := i * (len(fx.src) - cfg.decompBytes) / cfg.decompPool &^ 3
		raw := fx.src[off : off+cfg.decompBytes]
		comp, _, _, err := writeStream(c, raw, 0, 1, nil, 0)
		if err != nil {
			return nil, err
		}
		fx.pool = append(fx.pool, servePoolItem{raw: raw, comp: comp, codec: name})
	}

	srv, err := server.New(server.Config{AccessLog: io.Discard})
	if err != nil {
		return nil, err
	}
	srvURL, stopSrv, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{Backends: []string{srvURL}, AccessLog: io.Discard})
	if err != nil {
		stopSrv()
		return nil, err
	}
	gwURL, stopGw, err := listen(gw.Handler())
	if err != nil {
		stopSrv()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.StartProbes(ctx)
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	fx.srvURL, fx.gwURL = srvURL, gwURL
	fx.client = &http.Client{Transport: tr}
	fx.stop = func() {
		cancel()
		tr.CloseIdleConnections()
		stopGw()
		stopSrv()
	}
	// Both versions of every object are uploaded and read back whole, so
	// the cache holds every chunk a read can touch before timing starts;
	// version 0 is left current.
	for _, o := range fx.objects {
		for _, v := range []int{1, 0} {
			o.current = v
			if err := fx.warm(o); err != nil {
				fx.stop()
				return nil, fmt.Errorf("warming %s: %w", o.key, err)
			}
		}
	}
	return fx, nil
}

// warm uploads the object's current version through the gateway and
// reads it back whole.
func (fx *serveFixture) warm(o *serveObject) error {
	if _, _, err := fx.call(http.MethodPut, fx.gwURL+"/v1/objects/"+o.key, o.versions[o.current], http.StatusCreated); err != nil {
		return err
	}
	body, _, err := fx.call(http.MethodGet, fx.gwURL+"/v1/read/"+o.key, nil, http.StatusOK)
	if err == nil && !bytes.Equal(body, o.content) {
		err = errors.New("full read differs from the object")
	}
	return err
}

// listen serves h on a fresh loopback listener. stop closes the server
// and its connections and waits for Serve to return.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// call sends one request and reads the whole response.
func (fx *serveFixture) call(method, url string, body []byte, want int) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	resp, err := fx.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, url, resp.StatusCode, want, out)
	}
	return out, resp.Header, nil
}

// sample is one completed request.
type sample struct {
	class     string
	codec     string
	ms        float64
	raw       int64 // raw bytes the request carried or returned
	respBytes int64
}

// serveLoop is the closed loop's bookkeeping.
type serveLoop struct {
	samples  []sample
	ratios   []float64
	bytesOut int64
}

// do sends one request to base, times it, and verifies the reply
// against an in-process result.
func (l *serveLoop) do(fx *serveFixture, base string, r serveReq, t *tally, rec *recorder, op int) {
	layer := "gateway"
	if base == fx.srvURL {
		layer = "server"
	}
	var method, url string
	var body, want []byte
	status := http.StatusOK
	var o *serveObject
	switch r.class {
	case "read":
		o = fx.objects[r.key]
		method = http.MethodGet
		url = fmt.Sprintf("%s/v1/read/%s?off=%d&len=%d", base, o.key, r.off, r.n)
		want = o.content[r.off : r.off+int64(r.n)]
		status = http.StatusPartialContent
	case "put":
		o = fx.objects[r.key]
		o.current ^= 1
		method, url, body = http.MethodPut, base+"/v1/objects/"+o.key, o.versions[o.current]
		status = http.StatusCreated
	case "decompress":
		method, url, body = http.MethodPost, base+"/v1/decompress", fx.pool[r.pool].comp
		want = fx.pool[r.pool].raw
	case "compress":
		method, url = http.MethodPost, base+"/v1/compress/"+r.codec
		body = fx.src[r.off : r.off+int64(r.n)]
	case "convert":
		method, url = http.MethodPost, base+"/v1/convert?to=posit&n=32&es=3"
		body = fx.src[r.off : r.off+int64(r.n)]
	case "auto":
		method, url = http.MethodPost, base+"/v1/compress/auto"
		body = fx.src[r.off : r.off+int64(r.n)]
	}
	sp := rec.start(nil, op, layer, r.class)
	t0 := time.Now()
	out, hdr, err := fx.call(method, url, body, status)
	d := time.Since(t0)
	sp.End()
	s := sample{class: r.class, codec: r.codec, ms: float64(d) / 1e6, respBytes: int64(len(out))}
	if err == nil {
		switch r.class {
		case "read", "decompress":
			if !bytes.Equal(out, want) {
				err = fmt.Errorf("%s body differs from the expected %d bytes", r.class, len(want))
			}
			s.raw = int64(len(want))
			if r.class == "decompress" {
				s.codec = fx.pool[r.pool].codec
			}
		case "compress", "auto":
			c, cerr := responseCodec(r, hdr)
			if err = cerr; err == nil {
				err = checkCompressed(c, out, body)
			}
			s.raw = int64(len(body))
			if err == nil && r.class == "compress" {
				l.ratios = append(l.ratios, compress.Ratio(len(body), len(out)))
			}
		case "convert":
			floats, derr := posit.DecodeFloat32LE(body)
			if derr == nil {
				words := posit.Posit32e3.FromFloat32Slice(nil, floats)
				if !bytes.Equal(out, posit.EncodeWordsLE(words)) {
					derr = errors.New("convert body differs from posit<32,3> of the input")
				}
			}
			err = derr
			s.raw = int64(len(body))
		case "put":
			err = checkPutMeta(out, o)
			s.raw = int64(len(body))
		}
	}
	if t.record(r.class, err) {
		l.samples = append(l.samples, s)
		l.bytesOut += s.respBytes
	}
}

// checkPutMeta checks the metadata a PUT returns against the upload,
// key names included (decoding into a struct would match them without
// regard to case).
func checkPutMeta(out []byte, o *serveObject) error {
	var got, want map[string]any
	if err := json.Unmarshal(out, &got); err != nil {
		return fmt.Errorf("put response: %w", err)
	}
	b, err := json.Marshal(o.metas[o.current])
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &want); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("put response %v, want %v", got, want)
	}
	return nil
}

// responseCodec is the codec a compress response was written with: the
// requested one, or for auto the advisor's pick named in the headers (an
// LC pick also names its pipeline).
func responseCodec(r serveReq, hdr http.Header) (compress.Codec, error) {
	name := r.codec
	if r.class == "auto" {
		name = hdr.Get("X-Positd-Codec")
	}
	if name == "lc" {
		pipe, err := lc.NewPipeline(strings.Split(hdr.Get("X-Positd-Auto-Pipeline"), "|")...)
		if err != nil {
			return nil, fmt.Errorf("auto response pipeline: %w", err)
		}
		return container.Wrap(lc.NewCodec(pipe)), nil
	}
	c, err := all.Get(name)
	if err != nil {
		return nil, fmt.Errorf("response names codec %q: %w", name, err)
	}
	return c, nil
}

// checkCompressed decodes a compress response and compares it with the
// body sent.
func checkCompressed(c compress.Codec, out, body []byte) error {
	back, err := io.ReadAll(compress.NewReader(c, bytes.NewReader(out)))
	if err != nil {
		return fmt.Errorf("decoding the %s response: %w", c.Name(), err)
	}
	if !bytes.Equal(back, body) {
		return fmt.Errorf("%s response decodes to different bytes", c.Name())
	}
	return nil
}

// ratioCycle is one stratified cycle of compress requests: every laid
// input × serve codec pair once.
const ratioCycle = 28 * 4

// ratioGeomean is the geomean ratio of the first ratioCycle compress
// responses of a block (all of them if the block has fewer).
func ratioGeomean(ratios []float64) float64 {
	return stats.GeoMean(ratios[:min(len(ratios), ratioCycle)])
}

// classMBs is the geomean over codecs of raw bytes ÷ request time within
// one class (reads have no codec and give one rate).
func (l *serveLoop) classMBs(class string) float64 {
	b := map[string]int64{}
	d := map[string]time.Duration{}
	for _, s := range l.samples {
		if s.class == class {
			b[s.codec] += s.raw
			d[s.codec] += time.Duration(s.ms * 1e6)
		}
	}
	return geomeanMBs(b, d)
}

// classPercentile returns the q-quantile latency of the samples and the
// class of the request that holds it.
func classPercentile(ss []sample, q float64) (float64, string, error) {
	idx, err := percentileIndex(len(ss), q)
	if err != nil {
		return 0, "", err
	}
	s := append([]sample(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	return s[idx].ms, s[idx].class, nil
}

// classP50 returns each class's median latency.
func classP50(ss []sample) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range ss {
		by[s.class] = append(by[s.class], s.ms)
	}
	out := map[string]float64{}
	for c, xs := range by {
		out[c] = median(xs)
	}
	return out
}

// traceServe is the traced serve run: the seeded sequence through positgw
// for half the time, then the same requests straight to positd. The
// per-class difference in p50 is the gateway hop. positd's and positgw's
// /metrics and the engine counters are read before and after.
func traceServe(e *env, cfg serveConfig, fx *serveFixture, seq []serveReq, res *result) error {
	srv0, err := fx.metrics(fx.srvURL)
	if err != nil {
		return err
	}
	gw0, err := fx.metrics(fx.gwURL)
	if err != nil {
		return err
	}
	eng0 := compress.EngineSnapshot()
	via := &serveLoop{}
	t0, c0 := time.Now(), cpuTime()
	n := 0
	for ; n < cfg.block || time.Since(t0).Seconds() < e.seconds/2; n++ {
		via.do(fx, fx.gwURL, seq[n%len(seq)], &res.tally, e.rec, n)
	}
	wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	direct := &serveLoop{}
	for i := 0; i < n; i++ {
		direct.do(fx, fx.srvURL, seq[i%len(seq)], &res.tally, e.rec, n+i)
	}
	eng := compress.EngineSnapshot()
	srv1, err := fx.metrics(fx.srvURL)
	if err != nil {
		return err
	}
	gw1, err := fx.metrics(fx.gwURL)
	if err != nil {
		return err
	}

	res.proto["requests"] = 2 * n
	res.layer["core.effective_cores"] = cpu / wall
	// The hop is the count-weighted per-class p50 difference. Auto is left
	// out of it: the direct replay finds the advisor's decision cache warm
	// from the gateway pass, so its auto requests are cheaper.
	viaP50, dirP50 := classP50(via.samples), classP50(direct.samples)
	var hop, weight float64
	for c, p := range dirP50 {
		res.layer["server."+c+".p50_ms"] = p
		if c != "auto" {
			k := float64(countClass(via.samples, c))
			hop += (viaP50[c] - p) * k
			weight += k
		}
	}
	res.layer["gateway.hop_p50_ms"] = hop / weight
	res.layer["server.shed_429"] = srv1.num("rejected_429") - srv0.num("rejected_429")
	res.layer["gateway.retries"] = gw1.num("retries_total") - gw0.num("retries_total")
	res.layer["gateway.hedges"] = gw1.num("hedges_launched") - gw0.num("hedges_launched")
	lookups := srv1.num("chunk_cache", "lookups") - srv0.num("chunk_cache", "lookups")
	hits := srv1.num("chunk_cache", "hits") - srv0.num("chunk_cache", "hits")
	if lookups > 0 {
		res.layer["chunkcache.hit_rate"] = hits / lookups
	}
	res.layer["chunkcache.evictions"] = srv1.num("chunk_cache", "evictions") - srv0.num("chunk_cache", "evictions")
	res.layer["chunkcache.coalesced"] = srv1.num("chunk_cache", "coalesced") - srv0.num("chunk_cache", "coalesced")
	chunks := float64(eng.CompressChunks - eng0.CompressChunks + eng.DecompressChunks - eng0.DecompressChunks)
	res.layer["engine.chunks"] = chunks
	if chunks > 0 {
		res.layer["engine.queue_wait_us_per_chunk"] = float64(eng.QueueWaitNS-eng0.QueueWaitNS) / 1e3 / chunks
	}
	if sub := float64(eng.SchedSubmitted - eng0.SchedSubmitted); sub > 0 {
		res.layer["engine.steal_frac"] = float64(eng.SchedSteals-eng0.SchedSteals) / sub
	}
	res.counts["bytes_out"] = float64(via.bytesOut)
	res.counts["ratio_geomean"] = ratioGeomean(via.ratios)

	untraced := &serveLoop{}
	u0 := time.Now()
	for i := 0; i < cfg.block; i++ {
		untraced.do(fx, fx.gwURL, seq[i%len(seq)], &res.tally, nil, 0)
	}
	untracedS := time.Since(u0).Seconds()
	traced := &serveLoop{}
	u0 = time.Now()
	for i := 0; i < cfg.block; i++ {
		traced.do(fx, fx.gwURL, seq[i%len(seq)], &res.tally, e.rec, 2*n+i)
	}
	res.layer["trace.overhead_s"] = time.Since(u0).Seconds() - untracedS

	if err := probeLayers(e.rec, res); err != nil {
		return err
	}
	finishTrace(e.rec, res)
	return nil
}

func countClass(ss []sample, class string) int {
	n := 0
	for _, s := range ss {
		if s.class == class {
			n++
		}
	}
	return n
}

// cacheCounts records positd's chunk-cache counter deltas for the replay
// check: same seed, same counts, and hits + misses == lookups.
func cacheCounts(before, after metricsDoc, counts map[string]float64) {
	d := func(k string) float64 { return after.num("chunk_cache", k) - before.num("chunk_cache", k) }
	counts["cache_lookups"] = d("lookups")
	counts["cache_hits"] = d("hits")
	counts["cache_hits_plus_misses"] = d("hits") + d("misses")
}

// metricsDoc is a decoded /metrics document.
type metricsDoc map[string]any

func (fx *serveFixture) metrics(base string) (metricsDoc, error) {
	b, _, err := fx.call(http.MethodGet, base+"/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var m metricsDoc
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics: %w", base, err)
	}
	return m, nil
}

// num reads a numeric field by path (0 when absent).
func (m metricsDoc) num(path ...string) float64 {
	var cur any = map[string]any(m)
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[p]
	}
	f, _ := cur.(float64)
	return f
}
