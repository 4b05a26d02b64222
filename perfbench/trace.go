package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/obs"
)

// layer names one span kind. Spans are recorded only from the
// benchmark's side: the handler middleware and the program's own timer
// observations arriving through obs.Recorder (start = end - value). The
// benchmark's feature functions are timed too, but into per-request sums
// (fnTotals), not spans.
type layer uint8

const (
	lCloud layer = iota
	lQueueWait
	lMatch
	lCandidates
	lQuerySets
	lScore
	lGuide
	lDownsample
	lTryBlockers
	lBlock
	lSampleLabel
	lVectors
	lSelect
	lTrain
	lPredict
	nLayers
	lNone layer = 255
)

// layers gives each span kind its name and parent kind.
var layers = [nLayers]struct {
	name   string
	parent layer
}{
	lCloud:       {"cloud.handler", lNone},
	lQueueWait:   {"serve.pool.queue_wait", lCloud},
	lMatch:       {"serve.corpus.match", lCloud},
	lCandidates:  {"serve.corpus.candidates", lMatch},
	lQuerySets:   {"feature.query_sets", lMatch},
	lScore:       {"serve.corpus.score", lMatch},
	lGuide:       {"core.guide", lNone},
	lDownsample:  {"core.downsample", lGuide},
	lTryBlockers: {"core.try_blockers", lGuide},
	lBlock:       {"core.block", lGuide},
	lSampleLabel: {"core.sample_label", lGuide},
	lVectors:     {"feature.vectors", lSampleLabel},
	lSelect:      {"core.select_matcher", lGuide},
	lTrain:       {"core.train", lGuide},
	lPredict:     {"core.predict", lGuide},
}

// span is one recorded interval; times are ns since the tracer's epoch.
// Spans of one request (or one guide run) share Req.
type span struct {
	Req        uint32
	Layer      layer
	Start, End int64
}

// fnKind indexes fnTotals: interned set functions and string functions.
type fnKind uint8

const (
	fnSet fnKind = iota
	fnString
	nFnKinds
)

// fnTotals is one request's summed feature-function time and call count.
type fnTotals struct {
	ns    [nFnKinds]int64
	calls [nFnKinds]int
}

// tracer is the benchmark-side obs.Recorder. It forwards every event to
// the live registry the program would record into anyway, counts events,
// and turns timer observations into spans. Spans are kept only while on
// is set (the sequential passes, where exactly one request is in flight
// and cur names it); otherwise only queue waits are kept, as samples.
type tracer struct {
	next  obs.Recorder
	epoch time.Time
	cur   atomic.Uint32
	reqs  atomic.Uint32
	on    atomic.Bool

	events atomic.Int64

	// fn sums the feature functions of the request in flight. It is
	// written only while on, when exactly one request is in flight, so
	// its plain fields need no lock: the handler reads it after the pool
	// worker that wrote it has handed back its result.
	fn      fnTotals
	fnByReq map[uint32]fnTotals

	mu    sync.Mutex
	spans []span
	waits []float64 // queue waits in µs, taken while !on
	reqB  []float64 // /v1/match request bytes, while on
	respB []float64 // /v1/match response bytes, while on
}

func newTracer(next obs.Recorder) *tracer {
	return &tracer{next: next, epoch: time.Now(), fnByReq: map[uint32]fnTotals{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(l layer, start, end int64) {
	if !t.on.Load() {
		if l == lQueueWait {
			t.mu.Lock()
			t.waits = append(t.waits, float64(end-start)/1e3)
			t.mu.Unlock()
		}
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: t.cur.Load(), Layer: l, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) Count(name string, delta float64, labels ...obs.Label) {
	t.events.Add(1)
	t.next.Count(name, delta, labels...)
}

func (t *tracer) Gauge(name string, delta float64, labels ...obs.Label) {
	t.events.Add(1)
	t.next.Gauge(name, delta, labels...)
}

func (t *tracer) SetGauge(name string, value float64, labels ...obs.Label) {
	t.events.Add(1)
	t.next.SetGauge(name, value, labels...)
}

func (t *tracer) Observe(name string, value float64, labels ...obs.Label) {
	t.events.Add(1)
	t.next.Observe(name, value, labels...)
	if l := observedLayer(name, labels); l != lNone {
		end := t.now()
		t.add(l, end-int64(value*1e9), end)
	}
}

// observedLayer maps a program timer series to its span kind.
func observedLayer(name string, labels []obs.Label) layer {
	stage := ""
	if len(labels) > 0 && labels[0].Key == "stage" {
		stage = labels[0].Value
	}
	switch name {
	case obs.ServeQueueWaitSeconds:
		return lQueueWait
	case obs.ServeMatchSeconds:
		return lMatch
	case obs.ServeStageSeconds:
		switch stage {
		case "candidates":
			return lCandidates
		case "features":
			return lQuerySets
		case "score":
			return lScore
		}
	case obs.StageSeconds:
		switch stage {
		case "downsample":
			return lDownsample
		case "try_blockers":
			return lTryBlockers
		case "block":
			return lBlock
		case "sample_label":
			return lSampleLabel
		case "feature":
			return lVectors
		case "cv":
			return lSelect
		case "train":
			return lTrain
		case "predict":
			return lPredict
		}
	}
	return lNone
}

// middleware records the cloud span and the wire sizes of each /v1/match.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/match" {
			h.ServeHTTP(w, r)
			return
		}
		id := t.reqs.Add(1)
		t.cur.Store(id)
		on := t.on.Load()
		if on {
			t.fn = fnTotals{}
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r)
		t.add(lCloud, start, t.now())
		if on {
			t.mu.Lock()
			t.fnByReq[id] = t.fn
			t.reqB = append(t.reqB, float64(r.ContentLength))
			t.respB = append(t.respB, float64(cw.n))
			t.mu.Unlock()
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// wrapFeatures returns a copy of fs whose Fn and SetFn values, while the
// tracer is on, add their time and a call to the request's fnTotals. A
// wrapped call costs two clock reads; wrapCost measures how much of that
// lands inside the summed time and how much outside it.
func (t *tracer) wrapFeatures(fs *feature.Set) *feature.Set {
	out := &feature.Set{Missing: fs.Missing, Features: slices.Clone(fs.Features)}
	for i := range out.Features {
		f := &out.Features[i]
		if fn := f.Fn; fn != nil {
			f.Fn = func(l, r string) float64 {
				if !t.on.Load() {
					return fn(l, r)
				}
				s := t.now()
				v := fn(l, r)
				t.fn.ns[fnString] += t.now() - s
				t.fn.calls[fnString]++
				return v
			}
		}
		if sf := f.SetFn; sf != nil {
			f.SetFn = func(a, b []uint32) float64 {
				if !t.on.Load() {
					return sf(a, b)
				}
				s := t.now()
				v := sf(a, b)
				t.fn.ns[fnSet] += t.now() - s
				t.fn.calls[fnSet]++
				return v
			}
		}
	}
	return out
}

// wrapCost is the per-call cost of a wrapped feature function, in ns:
// inside is what the wrapper adds to the summed function time, outside
// what it adds to the enclosing score span beyond that. It times an empty
// set function bare and wrapped, with the tracer on and no request in
// flight, and takes the median of seven rounds.
func (t *tracer) wrapCost() (inside, outside float64) {
	const calls = 200_000
	bare := func(a, b []uint32) float64 { return 0 }
	wrapped := t.wrapFeatures(&feature.Set{Features: []feature.Feature{{SetFn: bare}}}).Features[0].SetFn
	var ins, outs []float64
	for k := 0; k < 7; k++ {
		t0 := time.Now()
		callN(bare, calls)
		b := time.Since(t0)
		t.fn = fnTotals{}
		t0 = time.Now()
		callN(wrapped, calls)
		w := time.Since(t0)
		in := float64(t.fn.ns[fnSet]) / calls
		ins = append(ins, in)
		outs = append(outs, float64(w-b)/calls-in)
	}
	t.fn = fnTotals{}
	inside, _ = median(ins)
	outside, _ = median(outs)
	return inside, outside
}

// callN calls f n times; it is not inlined, so f is called through its
// func value as the corpus calls it.
//
//go:noinline
func callN(f func(a, b []uint32) float64, n int) {
	for i := 0; i < n; i++ {
		f(nil, nil)
	}
}

// reqLayers is one request's per-layer totals: summed duration, self time
// (duration minus the union of its children's intervals, clipped to it)
// and span count.
type reqLayers struct {
	total, self [nLayers]float64 // µs
	count       [nLayers]int
}

// selfTimes groups spans by request and computes per-layer totals.
func selfTimes(spans []span) map[uint32]*reqLayers {
	byReq := map[uint32][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	out := make(map[uint32]*reqLayers, len(byReq))
	for req, ss := range byReq {
		rl := &reqLayers{}
		children := map[layer][]span{}
		for _, s := range ss {
			if p := layers[s.Layer].parent; p != lNone {
				children[p] = append(children[p], s)
			}
		}
		for _, s := range ss {
			dur := float64(s.End-s.Start) / 1e3
			rl.total[s.Layer] += dur
			rl.count[s.Layer]++
			rl.self[s.Layer] += dur - covered(s, children[s.Layer])/1e3
		}
		out[req] = rl
	}
	return out
}

// covered returns the ns of p's interval that the union of kids covers.
func covered(p span, kids []span) float64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		sum += curE - curS
	}
	return float64(sum)
}

// spanJSON is the on-disk form of a span.
type spanJSON struct {
	Req     uint32 `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes spans as a JSON array.
func writeSpans(path string, groups ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var out []spanJSON
	for _, ss := range groups {
		for _, s := range ss {
			j := spanJSON{Req: s.Req, Name: layers[s.Layer].name, StartNs: s.Start, EndNs: s.End}
			if p := layers[s.Layer].parent; p != lNone {
				j.Parent = layers[p].name
			}
			out = append(out, j)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
