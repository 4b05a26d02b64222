package feature

import (
	"fmt"
	"strings"

	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// ExtractOptions tunes feature-vector extraction.
type ExtractOptions struct {
	// Workers parallelizes extraction across pairs; 0 means GOMAXPROCS
	// (parallel.Resolve).
	Workers int
	// Metrics receives extraction timings and vector counts
	// (obs.FeatureExtractSeconds, obs.FeatureVectors); nil means off.
	Metrics obs.Recorder
	// NoTokenCache disables the per-row tokenization cache, forcing every
	// feature through its string PairFunc as if no token-set fast path
	// existed. The cached and uncached paths produce bit-identical
	// vectors; the flag exists for the equivalence tests.
	NoTokenCache bool
}

// tokenCache holds each token-set feature's attribute columns tokenized and
// interned once per row, turning the per-pair-per-feature retokenization of
// the string path into an O(rows × columns) preprocessing pass. It also
// hoists the per-pair schema lookups every feature needs. Built once before
// the (possibly parallel) pair scan, then shared read-only.
type tokenCache struct {
	// lsets[k]/rsets[k] is the cached column for feature k (nil when the
	// feature has no token-set path or its attribute is missing); row i
	// holds the sorted interned set of that row's value, nil marking null.
	lsets, rsets [][][]uint32
	// lcol[k]/rcol[k] is feature k's column index in each schema (-1 when
	// absent), precomputed for the string-path features too.
	lcol, rcol []int
}

// cacheColKey identifies one tokenized column build: distinct features
// sharing an attribute and tokenizer reuse the same column.
type cacheColKey struct {
	attr string
	tok  string
}

// buildTokenCache tokenizes and interns every column some token-set feature
// needs, through one dictionary shared by both tables. Returns nil when no
// feature carries a token-set path.
func buildTokenCache(s *Set, lt, rt *table.Table) *tokenCache {
	c := &tokenCache{
		lsets: make([][][]uint32, len(s.Features)),
		rsets: make([][][]uint32, len(s.Features)),
		lcol:  make([]int, len(s.Features)),
		rcol:  make([]int, len(s.Features)),
	}
	d := intern.NewDict()
	lBuilt := make(map[cacheColKey][][]uint32)
	rBuilt := make(map[cacheColKey][][]uint32)
	any := false
	for k, f := range s.Features {
		c.lcol[k] = lt.Schema().Lookup(f.LAttr)
		c.rcol[k] = rt.Schema().Lookup(f.RAttr)
		if f.SetFn == nil || f.Tok == nil || c.lcol[k] < 0 || c.rcol[k] < 0 {
			continue
		}
		any = true
		lk := cacheColKey{f.LAttr, f.Tok.Name()}
		if _, ok := lBuilt[lk]; !ok {
			lBuilt[lk] = internColumn(d, lt, c.lcol[k], f.Tok)
		}
		c.lsets[k] = lBuilt[lk]
		rk := cacheColKey{f.RAttr, f.Tok.Name()}
		if _, ok := rBuilt[rk]; !ok {
			rBuilt[rk] = internColumn(d, rt, c.rcol[k], f.Tok)
		}
		c.rsets[k] = rBuilt[rk]
	}
	if !any {
		return nil
	}
	return c
}

// internColumn tokenizes one attribute of every row into sorted interned
// sets, mirroring the string path's tokenized() adapter (lower-case first).
// Null values stay nil; non-null values always get a non-nil set.
func internColumn(d *intern.Dict, t *table.Table, col int, tok tokenize.Tokenizer) [][]uint32 {
	out := make([][]uint32, t.Len())
	for i := 0; i < t.Len(); i++ {
		v := t.Row(i)[col]
		if v.IsNull() {
			continue
		}
		out[i] = d.SortedSet(tok.Tokenize(strings.ToLower(v.AsString())))
	}
	return out
}

// vector computes one pair's feature vector through the cache, reproducing
// Set.Vector bit for bit: cached features score interned sets, everything
// else falls through to the string PairFunc.
func (c *tokenCache) vector(s *Set, lrow, rrow table.Row, li, ri int) []float64 {
	x := make([]float64, len(s.Features))
	for k, f := range s.Features {
		lj, rj := c.lcol[k], c.rcol[k]
		if lj < 0 || rj < 0 {
			x[k] = s.missingScore()
			continue
		}
		if c.lsets[k] != nil {
			ls, rs := c.lsets[k][li], c.rsets[k][ri]
			if ls == nil || rs == nil {
				x[k] = s.missingScore()
				continue
			}
			x[k] = f.SetFn(ls, rs)
			continue
		}
		lv, rv := lrow[lj], rrow[rj]
		if lv.IsNull() || rv.IsNull() {
			x[k] = s.missingScore()
			continue
		}
		x[k] = f.Fn(lv.AsString(), rv.AsString())
	}
	return x
}

// RecordSets computes, for every feature in s carrying a token-set fast
// path, the sorted interned set of one record's relevant attribute — the
// per-record half of serving-side feature extraction (package serve caches
// these for every resident record and computes them once per query).
// attrs maps attribute name to rendered value; an absent key is a null.
// right selects the RAttr column (corpus side) instead of LAttr (query
// side). interner turns a lower-cased token slice into a sorted
// duplicate-free ID set and must never return nil (intern.Dict.SortedSet
// and SortedSetEphemeral both qualify); it runs once per distinct
// (attribute, tokenizer) column, exactly like the bulk cache. The result
// is indexed by feature; nil entries mark features without a set path or
// with a null attribute.
func (s *Set) RecordSets(attrs map[string]string, right bool, interner func(toks []string) []uint32) [][]uint32 {
	out := make([][]uint32, len(s.Features))
	built := make(map[cacheColKey][]uint32)
	for k, f := range s.Features {
		if f.SetFn == nil || f.Tok == nil {
			continue
		}
		attr := f.LAttr
		if right {
			attr = f.RAttr
		}
		v, ok := attrs[attr]
		if !ok {
			continue
		}
		ck := cacheColKey{attr, f.Tok.Name()}
		set, seen := built[ck]
		if !seen {
			set = interner(f.Tok.Tokenize(strings.ToLower(v)))
			built[ck] = set
		}
		out[k] = set
	}
	return out
}

// VectorWith computes one pair's feature vector from attribute maps plus
// per-record sets previously computed by RecordSets, reproducing Vector
// bit for bit on equivalent rows (pinned by TestVectorWithMatchesVector):
// features with both cached sets score SetFn over them, everything else
// falls back to the string PairFunc, and a null on either side scores the
// missing policy. Either sets argument may be nil to force the string
// path for every feature.
func (s *Set) VectorWith(lattrs, rattrs map[string]string, lsets, rsets [][]uint32) []float64 {
	x := make([]float64, len(s.Features))
	s.VectorWithInto(lattrs, rattrs, lsets, rsets, x)
	return x
}

// VectorWithInto is VectorWith writing into x, which must have
// len(s.Features) entries. It exists for callers that featurize many
// candidate pairs per query through reusable scratch (the serving corpus
// builds its per-query feature matrix this way); the values written are
// bit-identical to VectorWith's.
func (s *Set) VectorWithInto(lattrs, rattrs map[string]string, lsets, rsets [][]uint32, x []float64) {
	for k, f := range s.Features {
		lv, lok := lattrs[f.LAttr]
		rv, rok := rattrs[f.RAttr]
		if !lok || !rok {
			x[k] = s.missingScore()
			continue
		}
		if lsets != nil && rsets != nil && lsets[k] != nil && rsets[k] != nil {
			x[k] = f.SetFn(lsets[k], rsets[k])
			continue
		}
		x[k] = f.Fn(lv, rv)
	}
}

// Vectors computes the feature matrix for every pair of a candidate-set
// table. The pair table must be registered in cat (so its base tables and
// id columns are known); per the paper's self-containment principle the FK
// metadata is re-validated before use.
func Vectors(s *Set, pairs *table.Table, cat *table.Catalog, opts ExtractOptions) ([][]float64, error) {
	rec := obs.Or(opts.Metrics)
	defer obs.StartTimer(rec, obs.FeatureExtractSeconds)()
	meta, ok := cat.PairMeta(pairs)
	if !ok {
		return nil, fmt.Errorf("feature: pair table %q not registered in catalog", pairs.Name())
	}
	if err := cat.ValidatePair(pairs); err != nil {
		return nil, fmt.Errorf("feature: %w", err)
	}
	lidx, err := meta.LTable.KeyIndex()
	if err != nil {
		return nil, err
	}
	ridx, err := meta.RTable.KeyIndex()
	if err != nil {
		return nil, err
	}

	var cache *tokenCache
	if !opts.NoTokenCache {
		cache = buildTokenCache(s, meta.LTable, meta.RTable)
	}

	n := pairs.Len()
	out := make([][]float64, n)
	// Each pair's vector lands in its own index slot, so extraction at any
	// Workers setting is bit-identical to serial.
	if err := parallel.ForEach(opts.Workers, n, func(i int) error {
		lid := pairs.Get(i, meta.LID).AsString()
		rid := pairs.Get(i, meta.RID).AsString()
		li, ri := lidx[lid], ridx[rid]
		lrow := meta.LTable.Row(li)
		rrow := meta.RTable.Row(ri)
		if cache != nil {
			out[i] = cache.vector(s, lrow, rrow, li, ri)
		} else {
			out[i] = s.Vector(meta.LTable, meta.RTable, lrow, rrow)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rec.Count(obs.FeatureVectors, float64(n))
	return out, nil
}

// VectorForIDs computes the feature vector for a single (lid, rid) pair
// given the base tables. It is the convenience path interactive debuggers
// use.
func VectorForIDs(s *Set, lt, rt *table.Table, lid, rid string) ([]float64, error) {
	lidx, err := lt.KeyIndex()
	if err != nil {
		return nil, err
	}
	ridx, err := rt.KeyIndex()
	if err != nil {
		return nil, err
	}
	li, ok := lidx[lid]
	if !ok {
		return nil, fmt.Errorf("feature: id %q not in table %q", lid, lt.Name())
	}
	ri, ok := ridx[rid]
	if !ok {
		return nil, fmt.Errorf("feature: id %q not in table %q", rid, rt.Name())
	}
	return s.Vector(lt, rt, lt.Row(li), rt.Row(ri)), nil
}
