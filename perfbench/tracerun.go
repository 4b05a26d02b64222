package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
)

// guideReqBase offsets guide-run span IDs from request span IDs in the
// trace file.
const guideReqBase = 1 << 30

// rtStats is a runtime/metrics reading.
type rtStats struct {
	objs, bytes, cycles uint64
	gcCPU, totalCPU     float64
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtStats{objs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(), cycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64()}
}

// traceRun is the separate traced run; it reports the per-layer metrics
// and never an end-to-end one. It serves the workload twice: untraced,
// for allocations per request and the untraced nominal-rate median, and
// traced, for a sequential single-client pass (spans, so service time per
// layer) and a pass at the nominal rate (queue waits). It then times
// direct corpus writes and runs the guide untraced and traced.
func traceRun(sp spec, o options) (*report, error) {
	rep := newReport(sp, o.seed, true)
	acc := &rep.acc
	warm := phase{name: "warmup", rate: sp.rate, dur: sp.warmup, writeShare: sp.writeShare, abortLag: 5 * time.Second}
	nominal := phase{name: "nominal", rate: sp.rate, dur: time.Duration(o.seconds * 1e9), writeShare: sp.writeShare, abortLag: 5 * time.Second}

	// Untraced reference.
	u, err := prepare(sp, o.seed, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	acc.add(u.d.run(warm))
	orc, err := newOracle(u.srv.corpus, u.fs, u.clf, u.sh)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, sp.seqRequests)
	errs := make([]error, sp.seqRequests)
	r0 := readRuntime()
	for i := range bodies {
		bodies[i], errs[i] = postMatch(u.d.streams[0].client, u.srv.http.URL, u.in.bodies[seqQuery(i, len(u.in.queries))])
	}
	r1 := readRuntime()
	seqU := gateResult{Name: "untraced_sequential_replies"}
	for i, err := range errs {
		if err == nil {
			_, err = orc.checkBody(u.in.queries[seqQuery(i, len(u.in.queries))], bodies[i])
		}
		seqU.record(err)
	}
	acc.gate(seqU)
	un := u.d.run(nominal)
	r2 := readRuntime()
	acc.add(un)
	u.Close()
	n := float64(sp.seqRequests)
	rep.set("runtime.allocs_per_op", float64(r1.objs-r0.objs)/n, "count")
	rep.set("runtime.bytes_per_op", float64(r1.bytes-r0.bytes)/n, "bytes")
	rep.details["runtime_per_op"] = "process-wide allocation counters over the untraced sequential pass: they include the benchmark's HTTP client"
	rep.set("runtime.gc_cycles_per_kop", float64(r2.cycles-r1.cycles)/float64(un.Sent)*1e3, "count")
	gcFrac := newRatio(r2.gcCPU-r1.gcCPU, r2.totalCPU-r1.totalCPU)
	rep.set("runtime.gc_cpu_frac", gcFrac.Value, "ratio")
	rep.details["gc_cpu_s"] = gcFrac
	untracedP50, err := median(un.match)
	if err != nil {
		return nil, err
	}

	// Traced.
	tr := newTracer(nil)
	t, err := prepare(sp, o.seed, func(reg obs.Recorder) obs.Recorder { tr.next = reg; return tr }, tr.wrapFeatures, tr.middleware)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	acc.add(t.d.run(warm))
	tr.mu.Lock()
	tr.waits = nil
	tr.mu.Unlock()
	tn := t.d.run(nominal)
	acc.add(tn)
	tracedP50, err := median(tn.match)
	if err != nil {
		return nil, err
	}
	rep.set("trace.match_p50_overhead_ms", tracedP50-untracedP50, "ms")
	late, err := quantile(tn.late, sp.highQ)
	if err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}
	rep.set("loadgen.lateness_p99_us", late, "us")
	tr.mu.Lock()
	waits := tr.waits
	tr.mu.Unlock()
	qw, err := summarize(waits, "us")
	if err != nil {
		return nil, fmt.Errorf("queue wait: %w", err)
	}
	qw99, err := quantile(waits, sp.highQ)
	if err != nil {
		return nil, fmt.Errorf("queue wait: %w", err)
	}
	rep.set("serve.pool.queue_wait_p50_us", qw.P50, "us")
	rep.set("serve.pool.queue_wait_p99_us", qw99, "us")
	rej := newRatio(float64(tn.Rejected), float64(len(tn.match)))
	rep.set("serve.pool.rejected_frac", rej.Value, "ratio")
	rep.details["nominal_traced"] = map[string]any{"match_p50_ms": tracedP50, "untraced_match_p50_ms": untracedP50, "lateness_p99_us": late, "queue_wait_us": qw, "rejected": rej}

	// Sequential single-client pass: one request in flight, spans kept.
	if err := seqPass(sp, t, tr, acc, rep); err != nil {
		return nil, err
	}
	seqSpans := tr.spans

	// Direct corpus writes.
	if err := writePass(sp, o.seed, t, acc, rep); err != nil {
		return nil, err
	}
	acc.gate(t.gate("final", sp))

	// The guide, untraced then traced.
	gi, err := prepareGuide(sp, o.seed)
	if err != nil {
		return nil, err
	}
	plain, err := guidePhase(gi, sp, o.seed, acc, rep, nil, nil)
	if err != nil {
		return nil, err
	}
	gt := newTracer(obs.Nop)
	gt.on.Store(true)
	traced, err := guidePhase(gi, sp, o.seed, acc, rep, gt, func(i int) { gt.cur.Store(uint32(guideReqBase + i)) })
	if err != nil {
		return nil, err
	}
	var plainS, tracedS []float64
	for i, r := range traced {
		plainS = append(plainS, plain[i].seconds)
		tracedS = append(tracedS, r.seconds)
		start := int64(r.start.Sub(gt.epoch))
		gt.spans = append(gt.spans, span{Req: uint32(guideReqBase + i), Layer: lGuide, Start: start, End: start + int64(r.seconds*1e9)})
	}
	pm, _ := median(plainS)
	tm, _ := median(tracedS)
	rep.set("trace.guide_overhead_s", tm-pm, "s")
	stage := func(f func(*reqLayers) float64) float64 {
		var xs []float64
		for _, rl := range selfTimes(gt.spans) {
			xs = append(xs, f(rl))
		}
		m, _ := median(xs)
		return m / 1e3
	}
	rep.set("core.downsample_ms", stage(func(r *reqLayers) float64 { return r.total[lDownsample] }), "ms")
	rep.set("core.try_blockers_ms", stage(func(r *reqLayers) float64 { return r.total[lTryBlockers] }), "ms")
	rep.set("core.block_ms", stage(func(r *reqLayers) float64 { return r.total[lBlock] }), "ms")
	rep.set("core.sample_label_ms", stage(func(r *reqLayers) float64 { return r.self[lSampleLabel] }), "ms")
	rep.set("feature.vectors_ms", stage(func(r *reqLayers) float64 { return r.total[lVectors] }), "ms")
	rep.set("core.select_matcher_ms", stage(func(r *reqLayers) float64 { return r.total[lSelect] }), "ms")
	rep.set("core.train_predict_ms", stage(func(r *reqLayers) float64 { return r.total[lTrain] + r.total[lPredict] }), "ms")
	g := traced[0]
	kept := newRatio(float64(g.goldInCands), float64(g.reachable))
	match := newRatio(float64(g.goldInCands), float64(g.out.Candidates))
	rep.set("block.candidates", float64(g.out.Candidates), "count")
	rep.set("block.gold_kept_frac", kept.Value, "ratio")
	rep.set("block.match_frac", match.Value, "ratio")
	rep.details["guide_traced"] = map[string]any{"untraced_s": plainS, "traced_s": tracedS, "gold_kept": kept, "match": match}

	rep.set("loadgen.failed_frac", newRatio(float64(acc.failed), float64(acc.attempted)).Value, "ratio")
	rep.details["failed"] = newRatio(float64(acc.failed), float64(acc.attempted))
	path := filepath.Join(o.traceOut, sp.name+".json")
	if err := writeSpans(path, seqSpans, gt.spans); err != nil {
		return nil, err
	}
	rep.details["trace_file"] = path
	return rep, nil
}

// seqQuery picks the i-th query of a sequential pass.
func seqQuery(i, n int) int { return (i * 7) % n }

// seqPass sends sp.seqRequests queries one at a time through the traced
// server, checks every reply, replays each query's candidate matrix
// through the flat forest, and reports the per-request layer breakdown.
func seqPass(sp spec, t *prepared, tr *tracer, acc *accounting, rep *report) error {
	orc, err := newOracle(t.srv.corpus, t.fs, t.clf, t.sh)
	if err != nil {
		return err
	}
	client := t.d.streams[0].client
	g := gateResult{Name: "sequential_replies"}
	first := tr.reqs.Load() + 1
	tr.on.Store(true)
	inside, outside := tr.wrapCost()
	ev0 := tr.events.Load()
	returned := 0
	for i := 0; i < sp.seqRequests; i++ {
		k := seqQuery(i, len(t.in.queries))
		body, err := postMatch(client, t.srv.http.URL, t.in.bodies[k])
		if err == nil {
			var n int
			n, err = orc.checkBody(t.in.queries[k], body)
			returned += n
		}
		g.record(err)
	}
	tr.on.Store(false)
	acc.gate(g)
	rep.set("obs.events_per_request", float64(tr.events.Load()-ev0)/float64(sp.seqRequests), "count")

	flat, err := ml.NewFlatForest(t.clf)
	if err != nil {
		return err
	}
	mlUs := map[uint32]float64{}
	cands := 0
	for i := 0; i < sp.seqRequests; i++ {
		q := t.in.queries[seqQuery(i, len(t.in.queries))]
		ids := t.srv.corpus.CandidateIDs(q)
		cands += len(ids)
		if len(ids) == 0 {
			continue
		}
		rows := make([][]float64, len(ids))
		for j, id := range ids {
			r, _ := t.sh.get(id)
			rows[j] = t.fs.VectorWith(q.Attrs, r.Attrs, nil, nil)
		}
		out := make([]float64, len(rows))
		var reps []float64
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			flat.PredictProbaBatch(rows, out)
			reps = append(reps, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		mlUs[first+uint32(i)], _ = median(reps)
	}

	// The feature-function sums carry the wrappers' clock reads: inside
	// per call in the sums themselves, outside per call in the score
	// span. Both come off, so rank_us is the score span less the true
	// function time, the wrappers and the forest.
	tr.mu.Lock()
	reqB, respB, fnByReq := tr.reqB, tr.respB, tr.fnByReq
	tr.mu.Unlock()
	var cloudSelf, matchUs, candUs, qsetUs, setUs, strUs, strCalls, rank, ml []float64
	for id, rl := range selfTimes(tr.spans) {
		cloudSelf = append(cloudSelf, rl.self[lCloud])
		matchUs = append(matchUs, rl.total[lMatch])
		candUs = append(candUs, rl.total[lCandidates])
		if rl.count[lScore] == 0 {
			continue // no candidates: MatchOne returned before featurizing
		}
		fn := fnByReq[id]
		calls := float64(fn.calls[fnSet] + fn.calls[fnString])
		qsetUs = append(qsetUs, rl.total[lQuerySets])
		setUs = append(setUs, (float64(fn.ns[fnSet])-float64(fn.calls[fnSet])*inside)/1e3)
		strUs = append(strUs, (float64(fn.ns[fnString])-float64(fn.calls[fnString])*inside)/1e3)
		strCalls = append(strCalls, float64(fn.calls[fnString]))
		rank = append(rank, rl.total[lScore]-float64(fn.ns[fnSet]+fn.ns[fnString])/1e3-calls*outside/1e3-mlUs[id])
		ml = append(ml, mlUs[id])
	}
	for _, m := range []struct {
		name, unit string
		xs         []float64
	}{
		{"cloud.self_us", "us", cloudSelf},
		{"cloud.req_bytes", "bytes", reqB},
		{"cloud.resp_bytes", "bytes", respB},
		{"serve.corpus.match_us", "us", matchUs},
		{"serve.corpus.candidates_us", "us", candUs},
		{"feature.query_sets_us", "us", qsetUs},
		{"feature.set_fn_us", "us", setUs},
		{"feature.string_fn_us", "us", strUs},
		{"serve.corpus.rank_us", "us", rank},
		{"ml.score_us", "us", ml},
	} {
		v, err := median(m.xs)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		rep.set(m.name, v, m.unit)
	}
	rep.set("feature.string_calls_per_query", mean(strCalls), "count")
	perQ := newRatio(float64(cands), float64(sp.seqRequests))
	useful := newRatio(float64(returned), float64(cands))
	rep.set("serve.corpus.candidates_per_query", perQ.Value, "count")
	rep.set("serve.corpus.returned_frac", useful.Value, "ratio")
	rep.details["sequential"] = map[string]any{"requests": sp.seqRequests, "spans": len(tr.spans), "candidates_per_query": perQ, "returned": useful,
		"fn_wrapper_ns_per_call": map[string]float64{"inside": inside, "outside": outside}}
	return nil
}

// writePass applies sp.writeOps single-record writes (30% add, 40%
// update, 30% delete) directly to the traced corpus, one at a time, and
// times each; writes during which a compaction ran are also timed as
// compactions.
func writePass(sp spec, seed int64, t *prepared, acc *accounting, rep *report) error {
	c := t.srv.corpus
	t.sh.mu.Lock()
	ids := make([]string, 0, len(t.sh.recs))
	for id := range t.sh.recs {
		ids = append(ids, id)
	}
	t.sh.mu.Unlock()
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(seed*31 + 7))
	g := gateResult{Name: "direct_writes"}
	comps0 := c.Stats().Compactions
	var writeUs, compactMs []float64
	for i := 0; i < sp.writeOps; i++ {
		before := c.Stats().Compactions
		var err error
		var dur time.Duration
		switch u := rng.Float64(); {
		case u < 0.3 || len(ids) == 0:
			rec := randomRecord(fmt.Sprintf("w-%d", i), t.in.vocab, rng)
			t0 := time.Now()
			err = c.Add(rec)
			dur = time.Since(t0)
			if err == nil {
				ids = append(ids, rec.ID)
				t.sh.put(rec)
			}
		case u < 0.7:
			rec := randomRecord(ids[rng.Intn(len(ids))], t.in.vocab, rng)
			t0 := time.Now()
			err = c.Update(rec)
			dur = time.Since(t0)
			if err == nil {
				t.sh.put(rec)
			}
		default:
			k := rng.Intn(len(ids))
			t0 := time.Now()
			err = c.Delete(ids[k])
			dur = time.Since(t0)
			if err == nil {
				t.sh.del(ids[k])
				ids[k] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		}
		g.record(err)
		writeUs = append(writeUs, float64(dur.Nanoseconds())/1e3)
		if c.Stats().Compactions > before {
			compactMs = append(compactMs, float64(dur.Nanoseconds())/1e6)
		}
	}
	acc.gate(g)
	w, err := median(writeUs)
	if err != nil {
		return err
	}
	rep.set("serve.corpus.write_us", w, "us")
	rep.set("serve.corpus.compactions", float64(c.Stats().Compactions-comps0), "count")
	cm, _ := median(compactMs) // 0 when no compaction ran
	rep.set("serve.corpus.compact_ms", cm, "ms")
	return nil
}
