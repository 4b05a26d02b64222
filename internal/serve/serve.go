// Package serve is the incremental serving core: a long-lived Corpus that
// keeps the interned dictionary, sorted integer postings (array lists that
// flip to bitvec bitmaps past a threshold, the simjoin/PR-6 layout), and
// cached per-record feature sets resident and incrementally maintained
// under Add/Update/Delete — instead of re-interning, re-blocking, and
// re-featurizing the whole corpus per request the way the batch pipeline
// does. All read-path state lives in an immutable snapshot published
// through an atomic pointer (DESIGN.md §13): MatchOne, CandidateIDs,
// Stats, and Len load the snapshot once and take no locks, while writers
// serialize on a writer-only mutex, apply copy-on-write deltas, and
// publish a fresh snapshot as their last act. Deletions tombstone their
// slot in a copy-on-write bitmap; a periodic compaction pass rewrites the
// slot space — as a fresh generation, invisible to in-flight readers —
// once enough tombstones accumulate. Rebuilt() is the equivalence oracle:
// a from-scratch batch build of the live records, which must yield
// bit-identical candidates for every query (pinned by the testing/quick
// interleaving tests).
//
// MatchOne is the low-latency query path (candidate generation → cached
// feature extraction → resident matcher, batch-scored through the flat
// forest when one compiled), and Pool wraps it with batched async
// submission under admission control: a bounded queue that returns typed
// ErrOverloaded backpressure instead of buffering without bound. This is
// the "services + metamanager" serving gap of PAPER.md §1/Table 4, shaped
// after the resident incrementally-maintained indexes Large-Scale
// Collective Entity Matching uses to reach web scale.
package serve

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/tokenize"
)

// Record is one corpus or query record: an external ID plus rendered
// attribute values. A missing key is a null.
type Record struct {
	ID    string            `json:"id"`
	Attrs map[string]string `json:"attrs"`
}

// ScoredPair is one MatchOne result row.
type ScoredPair struct {
	QueryID string  `json:"query_id"`
	ID      string  `json:"id"`
	Score   float64 `json:"score"`
}

// CorpusOption tunes a Corpus; options apply in order, later wins.
type CorpusOption func(*corpusConfig)

// corpusConfig is the resolved option set.
type corpusConfig struct {
	minOverlap   int
	limit        int
	bitmapMin    int
	compactAfter int
	tok          tokenize.Tokenizer
	metrics      obs.Recorder
}

const (
	// defaultBitmapPostingMin is the posting length at which an array
	// posting flips to a bitvec bitmap — the simjoin default.
	defaultBitmapPostingMin = 512
	// defaultCompactAfter is the tombstone count that triggers a
	// compaction pass.
	defaultCompactAfter = 1024
)

// WithMinOverlap sets the blocking bar: a corpus record is a candidate
// when it shares at least k distinct tokens with the query. Default 1.
func WithMinOverlap(k int) CorpusOption {
	return func(c *corpusConfig) { c.minOverlap = k }
}

// WithLimit caps MatchOne's result to the n best-scoring pairs; 0 (the
// default) returns every candidate.
func WithLimit(n int) CorpusOption {
	return func(c *corpusConfig) { c.limit = n }
}

// WithBitmapPostingMin sets the posting length at which an array posting
// flips to a bitmap (0 = default 512, -1 = never flip).
func WithBitmapPostingMin(n int) CorpusOption {
	return func(c *corpusConfig) { c.bitmapMin = n }
}

// WithCompactAfter sets how many tombstones accumulate before a
// compaction pass rewrites the slot space (0 = default 1024, -1 = never
// compact automatically).
func WithCompactAfter(n int) CorpusOption {
	return func(c *corpusConfig) { c.compactAfter = n }
}

// WithTokenizer sets the blocking tokenizer (default whitespace).
func WithTokenizer(tok tokenize.Tokenizer) CorpusOption {
	return func(c *corpusConfig) { c.tok = tok }
}

// WithMetrics records the em_serve_* series into r; nil means off.
func WithMetrics(r obs.Recorder) CorpusOption {
	return func(c *corpusConfig) { c.metrics = r }
}

func applyCorpusOptions(opts []CorpusOption) corpusConfig {
	c := corpusConfig{
		minOverlap:   1,
		bitmapMin:    defaultBitmapPostingMin,
		compactAfter: defaultCompactAfter,
		tok:          tokenize.Whitespace{ReturnSet: true},
	}
	for _, o := range opts {
		o(&c)
	}
	if c.minOverlap < 1 {
		c.minOverlap = 1
	}
	if c.bitmapMin == 0 {
		c.bitmapMin = defaultBitmapPostingMin
	}
	if c.compactAfter == 0 {
		c.compactAfter = defaultCompactAfter
	}
	return c
}

// blockTokens renders a record's blocking token stream: every attribute
// value lower-cased and tokenized, in sorted attribute order so the
// stream — and therefore first-intern ID assignment — is deterministic.
func blockTokens(tok tokenize.Tokenizer, attrs map[string]string) []string {
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		out = append(out, tok.Tokenize(strings.ToLower(attrs[name]))...)
	}
	return out
}

// validate rejects records the corpus cannot hold.
func (r Record) validate() error {
	if r.ID == "" {
		return fmt.Errorf("serve: record with empty ID")
	}
	return nil
}
