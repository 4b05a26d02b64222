package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/simjoin"
	"repro/internal/tokenize"
)

// ParallelCell is one point of the workers x n scaling sweep: how fast one
// workload ran at this worker count and input size, how much it allocated,
// and whether its output stayed bit-identical to the Workers=1 run on the
// same input — the determinism contract of internal/parallel.
type ParallelCell struct {
	Workers     int   `json:"workers"`
	N           int   `json:"n"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Speedup is serial ns / this cell's ns at the same n; 1.0 by
	// construction on the workers=1 cells.
	Speedup   float64 `json:"speedup_vs_workers1"`
	Identical bool    `json:"identical"`
}

// ParallelWorkload is one benchmarked hot path with its sweep cells in
// (n, workers) order.
type ParallelWorkload struct {
	Name  string         `json:"name"`
	Cells []ParallelCell `json:"cells"`
}

// ParallelBench is the machine-readable payload of BENCH_parallel.json:
// the scaling surface of the parallel execution layer. CoresOK records
// whether the box could show scaling at all (GOMAXPROCS >= 2) — cells
// measured with CoresOK=false pin determinism and allocation counts, but
// their speedups are meaningless and regression gates must skip them.
type ParallelBench struct {
	Provenance      Provenance         `json:"provenance"`
	GOMAXPROCS      int                `json:"gomaxprocs"`
	CoresOK         bool               `json:"cores_ok"`
	WorkerSweep     []int              `json:"worker_sweep"`
	NSweep          []int              `json:"n_sweep"`
	SerialFallbacks int64              `json:"serial_fallbacks_total"`
	Workloads       []ParallelWorkload `json:"workloads"`
}

// MarshalBenchJSON renders the payload for BENCH_parallel.json.
func (p *ParallelBench) MarshalBenchJSON() ([]byte, error) {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Diverged returns the workload/cell labels whose output differed from the
// Workers=1 run — the failures CI must treat as hard errors regardless of
// core count.
//
//emlint:allow hotalloc -- cold diagnostic path over a handful of cells, expected empty
func (p *ParallelBench) Diverged() []string {
	var out []string
	for _, wl := range p.Workloads {
		for _, c := range wl.Cells {
			if !c.Identical {
				out = append(out, fmt.Sprintf("%s[workers=%d,n=%d]", wl.Name, c.Workers, c.N))
			}
		}
	}
	return out
}

// SpeedupAt returns the speedup of the named workload at the given worker
// count and the largest swept n, or 0 when no such cell exists.
func (p *ParallelBench) SpeedupAt(name string, workers int) float64 {
	best := 0.0
	bestN := -1
	for _, wl := range p.Workloads {
		if wl.Name != name {
			continue
		}
		for _, c := range wl.Cells {
			if c.Workers == workers && c.N > bestN {
				bestN, best = c.N, c.Speedup
			}
		}
	}
	return best
}

// benchIters times fn over iters runs after one warmup and returns the
// fastest ns/op — the usual minimum-of-k estimator, robust to scheduler
// noise at these run lengths.
//
//emlint:allow nondeterminism -- this is the benchmark harness's stopwatch
func benchIters(iters int, fn func() error) (int64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	best := int64(-1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns := time.Since(start).Nanoseconds()
		if best < 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// benchAllocs returns the heap allocation count of one fn run along with
// its result (reused for the output-identity check, saving a run). The
// warmup in benchIters has already happened, so steady-state lazily-built
// state is in place.
func benchAllocs(fn func() (any, error)) (int64, any, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := fn()
	if err != nil {
		return 0, nil, err
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), out, nil
}

// benchDataset builds the deterministic dense dataset the ML benches use.
func benchDataset(n, d int, seed int64) (*ml.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0]+row[1] > 1 {
			y[i] = 1
		}
	}
	return ml.NewDataset(x, y, nil)
}

// scalingWorkload is one swept hot path: build prepares the size-n input,
// run executes it at a worker count and returns a comparable output.
type scalingWorkload struct {
	name  string
	build func(n int, seed int64) error
	run   func(workers int) (any, error)
}

// benchJoinRecords generates one side of the simjoin scaling workload:
// n records of 4-10 tokens over a vocabulary that grows with n, zipf-ish
// skewed so high-frequency tokens (the bitmap-postings case) exist at
// every size.
func benchJoinRecords(n int, seed int64) []simjoin.IDRecord {
	rng := rand.New(rand.NewSource(seed))
	vocab := n / 4
	if vocab < 256 {
		vocab = 256
	}
	out := make([]simjoin.IDRecord, n)
	for i := range out {
		k := 4 + rng.Intn(7)
		toks := make([]uint32, k)
		for j := range toks {
			v := rng.Intn(vocab)
			if rng.Intn(4) == 0 {
				v = rng.Intn(vocab/16 + 1) // hot tokens
			}
			toks[j] = uint32(v)
		}
		out[i] = simjoin.IDRecord{ID: fmt.Sprintf("r%d", i), Tokens: toks}
	}
	return out
}

// serveVocab and serveRandomRecord generate the serve_match corpus: token
// overlap dense enough that queries surface real candidate sets.
func serveVocab(n int) []string {
	size := n / 4
	if size < 200 {
		size = 200
	}
	out := make([]string, size)
	for i := range out {
		out[i] = fmt.Sprintf("w%d", i)
	}
	return out
}

func serveRandomRecord(id string, vocab []string, rng *rand.Rand) serve.Record {
	pick := func(k int) string {
		toks := make([]string, k)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(toks, " ")
	}
	return serve.Record{ID: id, Attrs: map[string]string{
		"name": pick(2 + rng.Intn(3)),
		"desc": pick(4 + rng.Intn(5)),
	}}
}

// serveMatcher builds the resident feature battery and classifier the
// serve_match corpus scores with: two token-set features riding the
// interned fast path plus one pure string feature exercising the fallback.
func serveMatcher(seed int64) (*feature.Set, ml.Classifier, error) {
	ws := tokenize.Whitespace{ReturnSet: true}
	jacc := func(l, r string) float64 {
		return sim.Jaccard(ws.Tokenize(strings.ToLower(l)), ws.Tokenize(strings.ToLower(r)))
	}
	fs := &feature.Set{Features: []feature.Feature{
		{Name: "jaccard_ws_name", LAttr: "name", RAttr: "name", Fn: jacc, Tok: ws, SetFn: sim.JaccardU32},
		{Name: "jaccard_ws_desc", LAttr: "desc", RAttr: "desc", Fn: jacc, Tok: ws, SetFn: sim.JaccardU32},
		{Name: "lev_name", LAttr: "name", RAttr: "name", Fn: sim.Levenshtein},
	}}
	ds, err := benchDataset(256, len(fs.Features), seed)
	if err != nil {
		return nil, nil, err
	}
	clf := &ml.RandomForest{NumTrees: 16, Seed: seed, Workers: 1}
	if err := clf.Fit(ds); err != nil {
		return nil, nil, err
	}
	return fs, clf, nil
}

// serveMatchQueries is the fixed query batch serve_match drives through
// the pool at every corpus size.
const serveMatchQueries = 512

// buildServeMatch loads an n-record corpus with its resident matcher and
// generates the query batch.
func buildServeMatch(n int, seed int64) (*serve.Corpus, []serve.Record, error) {
	vocab := serveVocab(n)
	rng := rand.New(rand.NewSource(seed))
	c := serve.NewCorpus(serve.WithMinOverlap(2), serve.WithLimit(10))
	for i := 0; i < n; i++ {
		if err := c.Add(serveRandomRecord(fmt.Sprintf("m%d", i), vocab, rng)); err != nil {
			return nil, nil, err
		}
	}
	fs, clf, err := serveMatcher(seed)
	if err != nil {
		return nil, nil, err
	}
	if err := c.SetMatcher(fs, clf); err != nil {
		return nil, nil, err
	}
	qs := make([]serve.Record, serveMatchQueries)
	for i := range qs {
		qs[i] = serveRandomRecord(fmt.Sprintf("q%d", i), vocab, rng)
	}
	return c, qs, nil
}

// runServeMatch drives qs through a Pool of the given worker count and
// returns the scored pairs in query order. The one submitter keeps at most
// the queue's capacity (4x workers) in flight, so Submit never overloads,
// and waits on tickets oldest first.
func runServeMatch(c *serve.Corpus, qs []serve.Record, workers int) ([][]serve.ScoredPair, error) {
	p := serve.NewPool(c, workers, 0)
	defer p.Close()
	window := 4 * parallel.Resolve(workers)
	ctx := context.Background()
	tickets := make([]*serve.Ticket, len(qs))
	out := make([][]serve.ScoredPair, len(qs))
	next := 0
	for i := range qs {
		for ; next < len(qs) && next < i+window; next++ {
			tk, err := p.Submit(ctx, qs[next])
			if err != nil {
				return nil, err
			}
			tickets[next] = tk
		}
		pairs, err := tickets[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = pairs
	}
	return out, nil
}

// RunParallelBench sweeps the parallelized hot paths — the Jaccard
// similarity join, random-forest training, and MatchOne through the serve
// Pool — over every (workers, n) combination, recording ns/op, allocs/op,
// speedup against the Workers=1 run at the same n, and whether the output
// stayed bit-identical to it.
func RunParallelBench(seed int64, workerSweep, nSweep []int) (*ParallelBench, error) {
	if len(workerSweep) == 0 {
		workerSweep = []int{1, 2, 4, 8}
	}
	if len(nSweep) == 0 {
		nSweep = []int{1000, 10000, 100000}
	}
	out := &ParallelBench{
		Provenance:  CollectProvenance(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CoresOK:     runtime.GOMAXPROCS(0) >= 2,
		WorkerSweep: workerSweep,
		NSweep:      nSweep,
	}
	fallbacksBefore := parallel.SerialFallbacks()

	var joinL, joinR []simjoin.IDRecord
	var forestDS *ml.Dataset
	var serveCorpus *serve.Corpus
	var serveQs []serve.Record
	workloads := []scalingWorkload{
		{
			name: "simjoin_jaccard",
			build: func(n int, seed int64) error {
				joinL = benchJoinRecords(n, seed)
				joinR = benchJoinRecords(n, seed+1)
				return nil
			},
			run: func(workers int) (any, error) {
				return simjoin.JaccardJoinIDs(joinL, joinR, 0.5, simjoin.WithWorkers(workers))
			},
		},
		{
			name: "forest_fit_32trees",
			build: func(n int, seed int64) error {
				var err error
				forestDS, err = benchDataset(n, 16, seed)
				return err
			},
			run: func(workers int) (any, error) {
				f := &ml.RandomForest{NumTrees: 32, Seed: seed, Workers: workers}
				if err := f.Fit(forestDS); err != nil {
					return nil, err
				}
				// Reduce the forest to a comparable fingerprint: vote
				// fractions over a sample of the training rows.
				votes := make([]float64, 0, 64)
				step := forestDS.Len()/64 + 1
				for i := 0; i < forestDS.Len(); i += step {
					votes = append(votes, f.VoteFraction(forestDS.X[i]))
				}
				return votes, nil
			},
		},
		{
			name: "serve_match",
			build: func(n int, seed int64) error {
				var err error
				serveCorpus, serveQs, err = buildServeMatch(n, seed)
				return err
			},
			run: func(workers int) (any, error) {
				return runServeMatch(serveCorpus, serveQs, workers)
			},
		},
	}

	for _, wl := range workloads {
		work := ParallelWorkload{Name: wl.name}
		for _, n := range nSweep {
			if err := wl.build(n, seed); err != nil {
				return nil, err
			}
			iters := 3
			if n > 10000 {
				iters = 1 // big inputs: one timed run after warmup
			}
			var serialNs int64
			var serialOut any
			for _, w := range workerSweep {
				w := w
				ns, err := benchIters(iters, func() error { _, err := wl.run(w); return err })
				if err != nil {
					return nil, err
				}
				allocs, got, err := benchAllocs(func() (any, error) { return wl.run(w) })
				if err != nil {
					return nil, err
				}
				cell := ParallelCell{Workers: w, N: n, NsPerOp: ns, AllocsPerOp: allocs}
				if w == workerSweep[0] {
					serialNs, serialOut = ns, got
				}
				if ns > 0 {
					cell.Speedup = float64(serialNs) / float64(ns)
				}
				cell.Identical = reflect.DeepEqual(got, serialOut)
				work.Cells = append(work.Cells, cell)
			}
		}
		out.Workloads = append(out.Workloads, work)
	}
	out.SerialFallbacks = parallel.SerialFallbacks() - fallbacksBefore
	return out, nil
}

// FormatParallelBench renders the scaling surface for terminal output.
//
//emlint:allow hotalloc -- terminal rendering runs once per bench invocation
func FormatParallelBench(p *ParallelBench) string {
	s := fmt.Sprintf("%-20s %8s %8s %14s %14s %8s %10s\n",
		"workload", "n", "workers", "ns/op", "allocs/op", "speedup", "identical")
	for _, wl := range p.Workloads {
		for _, c := range wl.Cells {
			s += fmt.Sprintf("%-20s %8d %8d %14d %14d %7.2fx %10v\n",
				wl.Name, c.N, c.Workers, c.NsPerOp, c.AllocsPerOp, c.Speedup, c.Identical)
		}
	}
	s += fmt.Sprintf("(GOMAXPROCS=%d, cores_ok=%v, gated serial fallbacks=%d)\n",
		p.GOMAXPROCS, p.CoresOK, p.SerialFallbacks)
	return s
}
