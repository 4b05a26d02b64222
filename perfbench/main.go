// Command perfbench is the repository's benchmark. It drives the
// CloudMatcher serving path (/v1/match and single-record /v1/corpus
// writes over a loopback httptest server wired like cmd/cloudmatcher) and
// the PyMatcher Figure-2 guide (core.Session) through public functions
// only, checks their outputs, and prints every metric by name with its
// unit.
//
//	bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans from the benchmark's side of each layer boundary and
// reports the per-layer metrics (BENCHMARK.json lists both). The last line
// of standard output is the result object; the line before it carries the
// run's details: seed, provenance, phase accounting, sample counts and
// ratio bases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/experiments"
)

// sizes are the run sizes every workload shares; the tests shrink them.
type sizes struct {
	records      int           // initial corpus size
	queries      int           // distinct query records
	compactAfter int           // serve.WithCompactAfter
	writeOps     int           // writes in the write-only phases, and in the traced direct-write pass
	highQ        float64       // quantile of the per-layer tails: p99 (p90 in the tests' tiny runs)
	capWindows   int           // capacity windows, whose median is match_max_qps
	capWindow    time.Duration // length of a capacity window, after its warm-up
	seqRequests  int           // requests in the traced sequential pass
	setups       int
	guideRuns    int
	gateSample   int
	warmup       time.Duration // before the nominal phase; a quarter of it before each capacity window

	guideA, guideB, downA, downB int
}

// full are the benchmark's sizes; the guide task is the one
// experiments.RunGuideObserved runs (2,000 x 2,000 down-sampled to 600 x 600).
var full = sizes{
	records: 5000, queries: 4096, compactAfter: 256, writeOps: 1500,
	highQ: 0.99, capWindows: 25, capWindow: time.Second, seqRequests: 300,
	setups: 15, guideRuns: 11, gateSample: 64, warmup: time.Second,
	guideA: 2000, guideB: 2000, downA: 600, downB: 600,
}

// tinySizes keep a whole run of each workload to seconds, for the
// benchmark's own tests; the command line always runs full sizes.
var tinySizes = sizes{
	records: 400, queries: 256, compactAfter: 32, writeOps: 330,
	highQ: 0.9, capWindows: 3, capWindow: 200 * time.Millisecond, seqRequests: 40,
	setups: 2, guideRuns: 1, gateSample: 16, warmup: 200 * time.Millisecond,
	guideA: 300, guideB: 300, downA: 150, downB: 150,
}

// spec is one workload: the traffic shape over the shared sizes.
type spec struct {
	name       string
	vocab      int     // token vocabulary; smaller means more candidates per query
	rate       float64 // nominal offered rate, requests/s
	writeShare float64 // share of nominal-rate requests that are writes
	writeRate  float64 // rate of the write-only phases between the read phases (0 = none)
	sizes
}

// matchLimit is serve.WithLimit: replies carry the 10 best pairs.
//
// The tails of /v1/match latency are not bounded end-to-end metrics. On a
// small shared machine, host stalls of 10-30 ms hit 1-15% of requests
// depending on what else the host runs, so a p99 (and in a bad stretch
// even a p90) flips between the service tail and the stall length from
// run to run; the same stalls decide whether a rate just under capacity
// keeps its tail under a latency limit, so a search for the highest such
// rate moved by a quarter between runs of the same code. The details line
// reports every quantile each sample supports, and match_max_qps is the
// /v1/match rate the server keeps up with (see loadGen.saturate), the
// median of capWindows windows spread over the run.
const matchLimit = 10

// workloads are the benchmark's workloads by name.
var workloads = map[string]spec{
	// Few candidates per query (about 9): HTTP, pool, registry and
	// candidate generation dominate, and writes at a fixed share cross
	// compact-after several times per run.
	"serve_mixed": {name: "serve_mixed", vocab: 1250, rate: 800, writeShare: 0.15, sizes: full},
	// Hundreds of candidates per query: per-candidate featurization and
	// the full-list sort dominate. Reads are read-only; writes run in
	// phases of their own, spread over the run, against the dense
	// (bitmap) postings.
	"serve_wide": {name: "serve_wide", vocab: 200, rate: 400, writeRate: 400, sizes: full},
}

// tiny shrinks a workload for the benchmark's own tests.
func tiny(sp spec) spec {
	sp.sizes = tinySizes
	sp.vocab = max(16, sp.vocab/12)
	sp.rate = min(sp.rate, 300)
	sp.writeRate = min(sp.writeRate, 300)
	return sp
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// accounting collects what a run sent, what failed, and every gate.
type accounting struct {
	Phases    []*phaseStats `json:"phases"`
	Gates     []gateResult  `json:"gates"`
	attempted int
	failed    int
}

// add books a phase. Requests abandoned after a stall count as failed.
func (a *accounting) add(p *phaseStats) {
	a.Phases = append(a.Phases, p)
	a.attempted += p.Sent + p.Abandoned
	a.failed += p.Failed + p.Abandoned
}

// gate books a correctness gate: every check is an attempted operation
// and every mismatch a failed one.
func (a *accounting) gate(g gateResult) {
	a.Gates = append(a.Gates, g)
	a.attempted += g.Checked
	a.failed += g.Failed
}

func (a *accounting) gatesPass() bool {
	for _, g := range a.Gates {
		if g.Failed > 0 || g.Checked == 0 {
			return false
		}
	}
	return true
}

// report is one run's output: the metrics plus the details line.
type report struct {
	acc     accounting
	metrics map[string]metric
	details map[string]any
}

func newReport(sp spec, seed int64, trace bool) *report {
	return &report{metrics: map[string]metric{}, details: map[string]any{
		"workload":   sp.name,
		"seed":       seed,
		"trace":      trace,
		"provenance": experiments.CollectProvenance(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// result renders the run; a run whose gates fail reports no metrics.
func (r *report) result() result {
	res := result{Correct: r.acc.gatesPass() && r.acc.failed == 0, Attempted: r.acc.attempted, Failed: r.acc.failed, Metrics: r.metrics}
	if !r.acc.gatesPass() {
		res.Metrics = map[string]metric{}
	}
	return res
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string // directory the traced run writes its spans to
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	o := options{traceOut: filepath.Join(".bench_build", "traces")}
	fl.StringVar(&o.workload, "workload", "", "workload name: serve_mixed or serve_wide")
	fl.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fl.Float64Var(&o.seconds, "seconds", 10, "length of the nominal-rate measurement phase")
	fl.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve_mixed|serve_wide, --seconds > 0, --trace 0|1\n")
		return 2
	}
	rep, err := runWorkload(sp, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return emit(rep, stdout, stderr)
}

func runWorkload(sp spec, o options) (*report, error) {
	if o.trace == 1 {
		return traceRun(sp, o)
	}
	return measure(sp, o)
}

// emit prints the details line and the result line.
func emit(rep *report, stdout, stderr io.Writer) int {
	res := rep.result()
	rep.details["accounting"] = rep.acc
	d, err := json.Marshal(map[string]any{"details": rep.details})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", d, r)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed or operations failed; see details")
		return 1
	}
	return 0
}
