package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one finished span: a call into one layer's public
// functions, timed from the benchmark's side of the boundary. Spans of
// one operation share Op; Parent is 0 for a root.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so the timed code paths
// are identical with spans on and off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
	next  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is an open span; End closes it. A nil *span is a no-op.
type span struct {
	r      *recorder
	rec    spanRec
	closed bool
}

// start opens a span of layer/name under parent (nil for a root) for
// operation op.
func (r *recorder) start(parent *span, op int, layer, name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	p := 0
	if parent != nil {
		p = parent.rec.ID
	}
	return &span{r: r, rec: spanRec{ID: id, Parent: p, Op: op, Layer: layer, Name: name,
		Start: int64(time.Since(r.t0))}}
}

// End records the span's end time.
func (s *span) End() {
	if s == nil || s.closed {
		return
	}
	s.closed = true
	s.rec.End = int64(time.Since(s.r.t0))
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.rec)
	s.r.mu.Unlock()
}

// count returns how many spans were recorded.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns each layer's self time in seconds: the sum over its
// spans of the span's duration minus the part of that interval its child
// spans cover (children running in parallel are merged, not summed).
func (r *recorder) selfTimes() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	return selfTimes(spans)
}

func selfTimes(spans []spanRec) map[string]float64 {
	children := map[int][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		covered := coveredNS(s.Start, s.End, children[s.ID])
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// coveredNS returns the length of the union of the kids' intervals
// clipped to [lo, hi).
func coveredNS(lo, hi int64, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
