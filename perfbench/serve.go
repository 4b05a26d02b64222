package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// corpusName is the corpus every request addresses.
const corpusName = "default"

// inputs is everything a serving workload generates from its seed before
// the program sees any of it.
type inputs struct {
	base    []serve.Record // initial corpus
	queries []serve.Record // /v1/match query records
	bodies  [][]byte       // pre-encoded /v1/match bodies, aligned with queries
	vocab   []string
}

func makeInputs(sp spec, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{vocab: make([]string, sp.vocab)}
	for i := range in.vocab {
		in.vocab[i] = fmt.Sprintf("w%d", i)
	}
	in.base = make([]serve.Record, sp.records)
	for i := range in.base {
		in.base[i] = randomRecord(fmt.Sprintf("r%d", i), in.vocab, rng)
	}
	in.queries = make([]serve.Record, sp.queries)
	in.bodies = make([][]byte, sp.queries)
	for i := range in.queries {
		in.queries[i] = randomRecord(fmt.Sprintf("q%d", i), in.vocab, rng)
		b, err := json.Marshal(matchRequest{Corpus: corpusName, Record: in.queries[i]})
		if err != nil {
			return nil, err
		}
		in.bodies[i] = b
	}
	return in, nil
}

// randomRecord draws a 2-4 token name and a 4-8 token description from
// the vocabulary; the vocabulary size sets how many candidates a query
// shares two tokens with.
func randomRecord(id string, vocab []string, rng *rand.Rand) serve.Record {
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

// matcher builds the resident feature battery (two interned token-set
// Jaccards and one string Levenshtein) and a 16-tree forest fitted on
// synthetic vectors. The forest is part of the workload, not of its
// inputs, so it is the same for every --seed: with a forest fitted per
// seed, serve_wide's match rate differed by about 15% between seeds 3
// and 4, and by about 5% with this one.
func matcher() (*feature.Set, *ml.RandomForest, error) {
	const seed = 1
	ws := tokenize.Whitespace{ReturnSet: true}
	jacc := func(l, r string) float64 {
		return sim.Jaccard(ws.Tokenize(strings.ToLower(l)), ws.Tokenize(strings.ToLower(r)))
	}
	names := []string{"jaccard_ws_name", "jaccard_ws_desc", "lev_name"}
	fs := &feature.Set{Features: []feature.Feature{
		{Name: names[0], LAttr: "name", RAttr: "name", Fn: jacc, Tok: ws, SetFn: sim.JaccardU32},
		{Name: names[1], LAttr: "desc", RAttr: "desc", Fn: jacc, Tok: ws, SetFn: sim.JaccardU32},
		{Name: names[2], LAttr: "name", RAttr: "name", Fn: sim.Levenshtein},
	}}
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, 256)
	y := make([]int, 256)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if x[i][0]+x[i][1] > 1 {
			y[i] = 1
		}
	}
	ds, err := ml.NewDataset(x, y, names)
	if err != nil {
		return nil, nil, err
	}
	clf := &ml.RandomForest{NumTrees: 16, Seed: seed, Workers: 1}
	if err := clf.Fit(ds); err != nil {
		return nil, nil, err
	}
	return fs, clf, nil
}

// server is one running CloudMatcher stack behind a loopback listener,
// wired the way cmd/cloudmatcher wires it: one live obs.Registry shared by
// the HTTP server, the metamanager and the corpus, and pool workers at
// GOMAXPROCS.
type server struct {
	corpus  *serve.Corpus
	mm      *cloud.Metamanager
	corpora *serve.Registry
	http    *httptest.Server
}

// startServer loads base into a fresh corpus, installs the matcher and
// starts serving. rec, when non-nil, receives the program's metric events
// in front of the live registry; wrap, when non-nil, wraps the handler.
func startServer(sp spec, base []serve.Record, fs *feature.Set, clf ml.Classifier,
	rec func(obs.Recorder) obs.Recorder, wrap func(http.Handler) http.Handler) (*server, error) {
	reg := obs.NewRegistry()
	var metrics obs.Recorder = reg
	if rec != nil {
		metrics = rec(reg)
	}
	c := serve.NewCorpus(serve.WithMetrics(metrics), serve.WithMinOverlap(2),
		serve.WithLimit(matchLimit), serve.WithCompactAfter(sp.compactAfter))
	for _, r := range base {
		if err := c.Add(r); err != nil {
			return nil, err
		}
	}
	if err := c.SetMatcher(fs, clf); err != nil {
		return nil, err
	}
	corpora := serve.NewRegistry()
	if err := corpora.Register(corpusName, c, serve.NewPool(c, 0, 0)); err != nil {
		return nil, err
	}
	mm := cloud.NewMetamanager(cloud.NewRegistry(), cloud.EngineConfig{Metrics: reg})
	h := cloud.NewServer(mm, cloud.WithMetrics(reg), cloud.WithCorpora(corpora)).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return &server{corpus: c, mm: mm, corpora: corpora, http: httptest.NewServer(h)}, nil
}

// Close stops the listener (waiting for in-flight handlers), then the
// match pools and the metamanager.
func (s *server) Close() {
	s.http.Close()
	s.corpora.Close()
	s.mm.Close()
}

// matchRequest and matchResponse mirror the /v1/match wire format.
type matchRequest struct {
	Corpus string       `json:"corpus"`
	Record serve.Record `json:"record"`
}

type matchResponse struct {
	Corpus string             `json:"corpus"`
	Pairs  []serve.ScoredPair `json:"pairs"`
}

// shadow is the benchmark's own copy of the live corpus records: the
// ground truth the score gate featurizes from.
type shadow struct {
	mu   sync.Mutex
	recs map[string]serve.Record
}

func newShadow(base []serve.Record) *shadow {
	s := &shadow{recs: make(map[string]serve.Record, len(base))}
	for _, r := range base {
		s.recs[r.ID] = r
	}
	return s
}

func (s *shadow) put(r serve.Record) {
	s.mu.Lock()
	s.recs[r.ID] = r
	s.mu.Unlock()
}

func (s *shadow) del(id string) {
	s.mu.Lock()
	delete(s.recs, id)
	s.mu.Unlock()
}

func (s *shadow) get(id string) (serve.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[id]
	return r, ok
}

func (s *shadow) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// oracle answers what a correct /v1/match reply is: MatchOne on a
// from-scratch rebuild of the corpus, with each score recomputed by the
// pointer-walking forest over the string feature path.
type oracle struct {
	rebuilt *serve.Corpus
	fs      *feature.Set
	clf     ml.Classifier
	shadow  *shadow
}

// newOracle snapshots the corpus; it is valid while no write lands.
func newOracle(c *serve.Corpus, fs *feature.Set, clf ml.Classifier, sh *shadow) (*oracle, error) {
	if c.Len() != sh.len() {
		return nil, fmt.Errorf("corpus holds %d records, the benchmark's shadow %d", c.Len(), sh.len())
	}
	rb := c.Rebuilt()
	if err := rb.SetMatcher(fs, clf); err != nil {
		return nil, err
	}
	return &oracle{rebuilt: rb, fs: fs, clf: clf, shadow: sh}, nil
}

// check compares one decoded reply against the oracle.
func (o *oracle) check(q serve.Record, got []serve.ScoredPair) error {
	want, err := o.rebuilt.MatchOne(context.Background(), q)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("query %s: %d pairs, rebuild gives %d", q.ID, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("query %s pair %d: got %+v, rebuild gives %+v", q.ID, i, got[i], want[i])
		}
		r, ok := o.shadow.get(got[i].ID)
		if !ok {
			return fmt.Errorf("query %s: reply names %s, which is not live", q.ID, got[i].ID)
		}
		if p := o.clf.PredictProba(o.fs.VectorWith(q.Attrs, r.Attrs, nil, nil)); p != got[i].Score {
			return fmt.Errorf("query %s pair %s: score %v, pointer forest gives %v", q.ID, got[i].ID, got[i].Score, p)
		}
	}
	return nil
}

// checkBody decodes a raw reply body, checks it and returns how many
// pairs it holds.
func (o *oracle) checkBody(q serve.Record, body []byte) (int, error) {
	var resp matchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("query %s: undecodable reply: %v", q.ID, err)
	}
	return len(resp.Pairs), o.check(q, resp.Pairs)
}

// postMatch sends one /v1/match and returns the reply body.
func postMatch(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/match: status %d: %s", resp.StatusCode, out)
	}
	return out, nil
}

// gateResult counts one correctness gate's checks.
type gateResult struct {
	Name    string `json:"name"`
	Checked int    `json:"checked"`
	Failed  int    `json:"failed"`
	First   string `json:"first_failure,omitempty"`
}

func (g *gateResult) record(err error) {
	g.Checked++
	if err != nil {
		g.Failed++
		if g.First == "" {
			g.First = err.Error()
		}
	}
}

// serveGate sends n sample queries over HTTP after writes have quiesced
// and checks every reply against a fresh oracle.
func serveGate(name string, srv *server, client *http.Client, in *inputs, fs *feature.Set, clf ml.Classifier, sh *shadow, n int, corrupt func([]byte) []byte) gateResult {
	g := gateResult{Name: name}
	o, err := newOracle(srv.corpus, fs, clf, sh)
	if err != nil {
		g.record(err)
		return g
	}
	stride := len(in.queries) / n
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < n && i*stride < len(in.queries); i++ {
		k := i * stride
		body, err := postMatch(client, srv.http.URL, in.bodies[k])
		if err == nil {
			if corrupt != nil {
				body = corrupt(body)
			}
			_, err = o.checkBody(in.queries[k], body)
		}
		g.record(err)
	}
	return g
}

// timeSetup sets a server up from a collected heap and returns the wall
// time it took and the server.
func timeSetup(start func() (*server, error)) (float64, *server, error) {
	runtime.GC()
	t0 := time.Now()
	srv, err := start()
	if err != nil {
		return 0, nil, err
	}
	return time.Since(t0).Seconds(), srv, nil
}
