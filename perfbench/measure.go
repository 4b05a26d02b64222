package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/obs"
)

// segments is how many pieces the nominal phase runs in; a workload with
// a write rate also splits its writes into as many write-only phases, one
// before each segment.
const segments = 5

// streams is the number of client goroutines and connections: the load
// comes from one process with at most nproc of each.
const streams = 2

// prepared is a workload's generated inputs, matcher and running server.
type prepared struct {
	in  *inputs
	fs  *feature.Set
	clf *ml.RandomForest
	srv *server
	sh  *shadow
	d   *loadGen
	// start sets up a fresh server from the inputs; setupS is how long
	// the set-up of srv took, and heapMB the live heap it added.
	start  func() (*server, error)
	setupS float64
	heapMB float64
}

// prepare generates the inputs, sets the server up once, timing it and
// the live heap it adds, and starts the load generator. rec and wrapH are
// startServer's tracing hooks; wrapFS maps the matcher's feature set to
// the one the corpus serves with.
func prepare(sp spec, seed int64, rec func(obs.Recorder) obs.Recorder, wrapFS func(*feature.Set) *feature.Set, wrapH func(http.Handler) http.Handler) (*prepared, error) {
	in, err := makeInputs(sp, seed)
	if err != nil {
		return nil, err
	}
	fs, clf, err := matcher()
	if err != nil {
		return nil, err
	}
	served := fs
	if wrapFS != nil {
		served = wrapFS(fs)
	}
	sh := newShadow(in.base)
	start := func() (*server, error) { return startServer(sp, in.base, served, clf, rec, wrapH) }
	// The benchmark's own inputs and shadow are live before set-up; only
	// what set-up adds counts.
	heap0 := liveHeapMB()
	setupS, srv, err := timeSetup(start)
	if err != nil {
		return nil, err
	}
	heapMB := liveHeapMB() - heap0
	d, err := newLoadGen(srv.http.URL, in, sh, streams, seed)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &prepared{in: in, fs: fs, clf: clf, srv: srv, sh: sh, d: d, start: start, setupS: setupS, heapMB: heapMB}, nil
}

func (p *prepared) Close() {
	p.d.Close()
	p.srv.Close()
}

// gate runs the post-quiesce serve gate.
func (p *prepared) gate(name string, sp spec) gateResult {
	return serveGate(name, p.srv, p.d.streams[0].client, p.in, p.fs, p.clf, p.sh, sp.gateSample, nil)
}

// checkKept checks replies kept during a read-only phase against an
// oracle built before it.
func (p *prepared) checkKept(name string, o *oracle, kept []keptReply) gateResult {
	g := gateResult{Name: name}
	for _, k := range kept {
		_, err := o.checkBody(p.in.queries[k.q], k.body)
		g.record(err)
	}
	return g
}

// measure is the untraced run: it reports every end-to-end metric.
func measure(sp spec, o options) (*report, error) {
	rep := newReport(sp, o.seed, false)
	p, err := prepare(sp, o.seed, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	rep.set("heap_live_mb", p.heapMB, "MB")

	acc := &rep.acc
	gi, err := prepareGuide(sp, o.seed)
	if err != nil {
		return nil, err
	}
	// The host's speed drifts over tens of seconds, so each measurement is
	// spread over the whole run instead of taking one stretch of it: the
	// run goes in rounds, each with a chunk of serve_wide's writes, a
	// segment of the nominal phase and a share of the capacity windows,
	// and a guide run or a throwaway set-up follows each segment and
	// window in turn. A guide run or set-up is followed by a collection so
	// its garbage is not swept during the next serving phase.
	setups := []float64{p.setupS}
	var setupErr error
	setupTick := func() {
		if len(setups) >= sp.setups || setupErr != nil {
			return
		}
		var secs float64
		var srv *server
		if secs, srv, setupErr = timeSetup(p.start); setupErr == nil {
			srv.Close()
			setups = append(setups, secs)
		}
		runtime.GC()
	}
	var guides []guideRun
	var guideErr error
	guideTick := func() {
		if len(guides) >= sp.guideRuns || guideErr != nil {
			return
		}
		var r guideRun
		if r, guideErr = runGuide(gi.task, sp, o.seed, nil); guideErr == nil {
			guides = append(guides, r)
		}
		runtime.GC()
	}
	ticks := 0
	tick := func() {
		if ticks++; ticks%2 == 1 {
			guideTick()
		} else {
			setupTick()
		}
	}
	var ingest []float64
	writes := func() {
		if sp.writeRate == 0 {
			return
		}
		n := sp.writeOps / segments
		w := p.d.run(phase{name: "writes", rate: sp.writeRate, dur: time.Duration(float64(n) / sp.writeRate * 1e9), writeShare: 1, abortLag: 5 * time.Second})
		acc.add(w)
		ingest = append(ingest, w.ingest...)
	}

	acc.add(p.d.run(phase{name: "warmup", rate: sp.rate, dur: sp.warmup, writeShare: sp.writeShare, abortLag: 5 * time.Second}))
	nom := &phaseStats{Name: "nominal", Rate: sp.rate, Seconds: o.seconds}
	recsBefore := p.srv.corpus.Len()
	var rates, capMatch []float64
	for i := 0; i < segments; i++ {
		writes()
		seg := phase{name: "nominal", rate: sp.rate, dur: time.Duration(o.seconds / segments * 1e9), writeShare: sp.writeShare, abortLag: 5 * time.Second}
		if sp.writeShare > 0 {
			ph := p.d.run(seg)
			acc.add(ph)
			acc.gate(p.gate("after_nominal", sp))
			nom.merge(ph)
		} else {
			// Reads only: check a sample of this segment's replies against
			// a rebuild of the corpus as it stands.
			orc, err := newOracle(p.srv.corpus, p.fs, p.clf, p.sh)
			if err != nil {
				return nil, err
			}
			seg.keepEvery = 25
			ph := p.d.run(seg)
			acc.add(ph)
			acc.gate(p.checkKept("nominal_replies", orc, ph.kept))
			nom.merge(ph)
		}
		tick()
		for len(rates) < sp.capWindows*(i+1)/segments {
			ph, rate := p.d.saturate(sp.warmup/4, sp.capWindow, sp.rate*sp.writeShare)
			acc.add(ph)
			rates = append(rates, rate)
			capMatch = append(capMatch, ph.match...)
			tick()
		}
	}
	if sp.writeShare > 0 {
		ingest = nom.ingest
	}
	match, err := summarize(nom.match, "ms")
	if err != nil {
		return nil, fmt.Errorf("match latency: %w", err)
	}
	rep.set("match_p50_ms", match.P50, "ms")
	rep.details["match_ms"] = match
	if late, err := summarize(nom.late, "us"); err == nil {
		rep.details["loadgen_lateness_us"] = late
	}
	qps, err := median(rates)
	if err != nil {
		return nil, err
	}
	rep.set("match_max_qps", qps, "1/s")
	capacity := map[string]any{"window_s": sp.capWindow.Seconds(), "warm_s": (sp.warmup / 4).Seconds(), "write_rate_per_s": sp.rate * sp.writeShare, "match_rates_per_s": rates,
		"records_before": recsBefore, "records_after": p.srv.corpus.Len()}
	if m, err := summarize(capMatch, "ms"); err == nil {
		capacity["match_ms"] = m
	}
	rep.details["capacity"] = capacity
	for len(guides) < sp.guideRuns && guideErr == nil {
		guideTick()
	}
	for len(setups) < sp.setups && setupErr == nil {
		setupTick()
	}
	if guideErr != nil {
		return nil, guideErr
	}
	if setupErr != nil {
		return nil, setupErr
	}
	setupS, err := median(setups)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS, "s")
	rep.details["setup_s"] = setups
	acc.gate(p.gate("final", sp))

	in, err := summarize(ingest, "ms")
	if err != nil {
		return nil, fmt.Errorf("ingest latency: %w", err)
	}
	rep.set("ingest_p50_ms", in.P50, "ms")
	rep.details["ingest_ms"] = in
	rep.details["corpus"] = p.srv.corpus.Stats()

	acc.gate(guideGate(guides, gi.want))
	rep.details["guide"] = map[string]any{"expected": gi.want, "expected_from": gi.source, "got": guides[0].out}
	var secs []float64
	for _, r := range guides {
		secs = append(secs, r.seconds)
	}
	g, err := median(secs)
	if err != nil {
		return nil, err
	}
	rep.set("guide_s", g, "s")
	return rep, nil
}

// guideInputs is the generated guide task and the outcome the batch gate
// requires of it.
type guideInputs struct {
	task   *datagen.Task
	want   guideOutcome
	source string
}

func prepareGuide(sp spec, seed int64) (*guideInputs, error) {
	task, err := guideTask(sp, seed)
	if err != nil {
		return nil, err
	}
	want, source, err := expectedGuide(sp, seed)
	if err != nil {
		return nil, err
	}
	return &guideInputs{task: task, want: want, source: source}, nil
}

// guidePhase runs the guide sp.guideRuns times and books the batch gate.
// rec (nil = off) receives the runs' metric events; before, when non-nil,
// is called ahead of run i.
func guidePhase(gi *guideInputs, sp spec, seed int64, acc *accounting, rep *report, rec obs.Recorder, before func(i int)) ([]guideRun, error) {
	var runs []guideRun
	for i := 0; i < sp.guideRuns; i++ {
		if before != nil {
			before(i)
		}
		r, err := runGuide(gi.task, sp, seed, rec)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	acc.gate(guideGate(runs, gi.want))
	rep.details["guide"] = map[string]any{"expected": gi.want, "expected_from": gi.source, "got": runs[0].out}
	return runs, nil
}
