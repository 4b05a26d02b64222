// Package simjoin implements filter-based set-similarity joins — the Go
// counterpart of the Magellan ecosystem's py_stringsimjoin package. Given
// two collections of tokenized records it finds all cross pairs whose
// Jaccard, cosine, Dice, or overlap similarity clears a threshold, or whose
// edit distance is within a bound, without comparing all |L|×|R| pairs.
//
// The joins use the standard prefix-filter framework over interned integer
// token IDs (package intern): tokens are globally ordered by ascending
// document frequency (rarest first, ties by first-appearance ID); a record
// only needs its first few tokens ("the prefix") indexed, because two
// records whose prefixes are disjoint provably cannot reach the threshold.
// A size filter prunes candidates whose set sizes alone rule the threshold
// out, a PPJoin-style positional filter prunes candidates whose shared
// suffixes are too short, and every surviving candidate is verified with a
// zero-allocation merge that abandons the pair as soon as the remaining
// suffix cannot reach the required overlap.
//
// The string-token APIs (JaccardJoin etc.) intern their inputs into a
// per-call dictionary; callers that already hold interned IDs (the blockers
// in package block) use the *JoinIDs variants and share one dictionary
// across blocking, joining, and feature extraction. The retained map-based
// string implementation lives in reference_test.go as the equivalence-test
// oracle.
package simjoin

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// Record is one tokenized input row of a join.
type Record struct {
	// ID identifies the row in its source table (usually the key value).
	ID string
	// Tokens is the token set of the join attribute. Duplicates are
	// collapsed internally.
	Tokens []string
}

// IDRecord is one tokenized input row whose tokens are already interned to
// IDs by a caller-owned intern.Dict (shared across both sides of the join).
// Token order does not matter and duplicates are collapsed internally.
type IDRecord struct {
	ID     string
	Tokens []uint32
}

// Pair is one output row of a join.
type Pair struct {
	LID, RID string
	// Sim is the verified similarity (for edit-distance joins, the
	// negated distance is not used; see EditDistanceJoin).
	Sim float64
}

// JoinOption tunes join execution; see WithWorkers, WithMetrics,
// WithDenseMinTokens, and WithBitmapPostingMin. Options apply in order, so
// later options win. The same option surface serves the string-token APIs
// (JaccardJoin et al.), the pre-interned *JoinIDs variants, the
// edit-distance join, and the frozen reference joins of the tests.
type JoinOption func(*options)

// WithWorkers sets the number of goroutines probing the index; 0 (the
// default) means GOMAXPROCS (parallel.Resolve).
func WithWorkers(n int) JoinOption {
	return func(o *options) { o.Workers = n }
}

// WithMetrics directs join timings and candidate/output counters
// (obs.SimjoinSeconds/Candidates/Pairs, labeled by join name) into r; nil
// (the default) means off.
func WithMetrics(r obs.Recorder) JoinOption {
	return func(o *options) { o.Metrics = r }
}

// WithDenseMinTokens sets the token-set size at which a record additionally
// carries a compressed bitset (bitvec.Set), switching its verifications
// from the sorted merge to the word-level AND/popcount kernels. 0 means the
// default (64); negative disables bitset verification entirely.
func WithDenseMinTokens(n int) JoinOption {
	return func(o *options) { o.DenseMinTokens = n }
}

// WithBitmapPostingMin sets the postings-list length at which a token's
// postings flip from an array of (record, position) entries to a compressed
// bitmap over right-record positions. 0 means the default (512); negative
// disables bitmap postings.
func WithBitmapPostingMin(n int) JoinOption {
	return func(o *options) { o.BitmapPostingMin = n }
}

// applyJoinOptions resolves a variadic option list into the options carrier.
func applyJoinOptions(opts []JoinOption) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// options is the resolved join configuration JoinOption values mutate.
type options struct {
	// Workers is the number of goroutines probing the index; 0 means
	// GOMAXPROCS (parallel.Resolve). The paper scales PyMatcher commands
	// with Dask on multicore machines; this is the equivalent knob. Probe
	// scans below probeMinWork records stay serial regardless (the
	// parallel cost gate).
	Workers int
	// Metrics receives join timings and candidate/output counters
	// (obs.SimjoinSeconds/Candidates/Pairs, labeled by join name); nil
	// means off.
	Metrics obs.Recorder
	// DenseMinTokens is the token-set size at which a record additionally
	// carries a compressed bitset (bitvec.Set), switching its
	// verifications from the sorted merge to the word-level AND/popcount
	// kernels. 0 means the default (64); negative disables bitset
	// verification entirely.
	DenseMinTokens int
	// BitmapPostingMin is the postings-list length at which a token's
	// postings flip from an array of (record, position) entries to a
	// compressed bitmap over right-record positions — the high-frequency
	// tokens every dense record shares. 0 means the default (512);
	// negative disables bitmap postings.
	BitmapPostingMin int
}

// Join tuning defaults. The GUIDE.md tuning section documents when to
// override them through the With* options.
const (
	// defaultDenseMinTokens: below ~64 tokens the zero-alloc bounded merge
	// wins; above it the container kernels start to pay, and the 8 KiB
	// worst-case bitmap cost amortizes.
	defaultDenseMinTokens = 64
	// defaultBitmapPostingMin: a postings list this long costs more to
	// re-scan per probe than a bitmap walk of the same members.
	defaultBitmapPostingMin = 512
	// bitsetVerifyRatio gates the asymmetric contains-probe verify: the
	// small side must be at least this many times smaller than the dense
	// side before per-ID probing beats the linear merge.
	bitsetVerifyRatio = 4
	// probeMinWork is the smallest probe scan worth fanning out: each
	// chunk allocates an epoch-stamp array over the whole right side, so
	// tiny scans lose to serial execution.
	probeMinWork = 128
)

func (o options) denseMinTokens() int {
	if o.DenseMinTokens == 0 {
		return defaultDenseMinTokens
	}
	if o.DenseMinTokens < 0 {
		return math.MaxInt
	}
	return o.DenseMinTokens
}

func (o options) bitmapPostingMin() int {
	if o.BitmapPostingMin == 0 {
		return defaultBitmapPostingMin
	}
	if o.BitmapPostingMin < 0 {
		return math.MaxInt
	}
	return o.BitmapPostingMin
}

// joinShard is one worker's contiguous share of a join probe scan: the
// pairs it emitted and the candidates it verified. Shards concatenate in
// chunk order, reproducing the serial probe order exactly.
type joinShard struct {
	pairs []Pair
	cands int
}

// measure enumerates the supported set-similarity measures.
type measure int

const (
	measureJaccard measure = iota
	measureCosine
	measureDice
)

func (m measure) String() string {
	switch m {
	case measureJaccard:
		return "jaccard"
	case measureCosine:
		return "cosine"
	default:
		return "dice"
	}
}

// JaccardJoin returns all pairs with Jaccard similarity >= threshold.
func JaccardJoin(l, r []Record, threshold float64, opts ...JoinOption) ([]Pair, error) {
	il, ir := internRecords(l, r)
	return setJoin(il, ir, threshold, measureJaccard, applyJoinOptions(opts))
}

// CosineJoin returns all pairs with set-cosine similarity >= threshold.
func CosineJoin(l, r []Record, threshold float64, opts ...JoinOption) ([]Pair, error) {
	il, ir := internRecords(l, r)
	return setJoin(il, ir, threshold, measureCosine, applyJoinOptions(opts))
}

// DiceJoin returns all pairs with Dice similarity >= threshold.
func DiceJoin(l, r []Record, threshold float64, opts ...JoinOption) ([]Pair, error) {
	il, ir := internRecords(l, r)
	return setJoin(il, ir, threshold, measureDice, applyJoinOptions(opts))
}

// JaccardJoinIDs is JaccardJoin over pre-interned records.
func JaccardJoinIDs(l, r []IDRecord, threshold float64, opts ...JoinOption) ([]Pair, error) {
	return setJoin(l, r, threshold, measureJaccard, applyJoinOptions(opts))
}

// CosineJoinIDs is CosineJoin over pre-interned records.
func CosineJoinIDs(l, r []IDRecord, threshold float64, opts ...JoinOption) ([]Pair, error) {
	return setJoin(l, r, threshold, measureCosine, applyJoinOptions(opts))
}

// DiceJoinIDs is DiceJoin over pre-interned records.
func DiceJoinIDs(l, r []IDRecord, threshold float64, opts ...JoinOption) ([]Pair, error) {
	return setJoin(l, r, threshold, measureDice, applyJoinOptions(opts))
}

// internRecords interns both collections through one fresh dictionary —
// the adapter the string-token APIs run before the integer join.
func internRecords(l, r []Record) (il, ir []IDRecord) {
	d := intern.NewDict()
	conv := func(rs []Record) []IDRecord {
		out := make([]IDRecord, len(rs))
		for i, rec := range rs {
			out[i] = IDRecord{ID: rec.ID, Tokens: d.InternTokens(rec.Tokens)}
		}
		return out
	}
	return conv(l), conv(r)
}

// intRec is a canonicalized record: duplicate-free token IDs remapped to
// frequency order and sorted ascending, so the rarest tokens come first.
type intRec struct {
	id   string
	toks []uint32
}

// prepare canonicalizes both collections: per-record dedup, a document
// frequency count over both sides, a frequency-ordered remap of the ID
// space (intern.FrequencyRemap), and a final per-record sort. nids is the
// size of the remapped ID space, used to size the dense postings index.
func prepare(l, r []IDRecord) (pl, pr []intRec, nids int) {
	maxID := -1
	canon := func(rs []IDRecord) []intRec {
		out := make([]intRec, len(rs))
		for i, rec := range rs {
			toks := make([]uint32, len(rec.Tokens))
			copy(toks, rec.Tokens)
			toks = intern.SortedDedup(toks)
			if n := len(toks); n > 0 && int(toks[n-1]) > maxID {
				maxID = int(toks[n-1])
			}
			out[i] = intRec{id: rec.ID, toks: toks}
		}
		return out
	}
	pl, pr = canon(l), canon(r)
	freq := make([]int, maxID+1)
	for _, rec := range pl {
		for _, t := range rec.toks {
			freq[t]++
		}
	}
	for _, rec := range pr {
		for _, t := range rec.toks {
			freq[t]++
		}
	}
	remap := intern.FrequencyRemap(freq)
	reorder := func(rs []intRec) {
		for _, rec := range rs {
			for k, t := range rec.toks {
				rec.toks[k] = remap[t]
			}
			slices.Sort(rec.toks)
		}
	}
	reorder(pl)
	reorder(pr)
	return pl, pr, len(freq)
}

// minOverlap returns the minimum token overlap a record of size n must
// share with any qualifying partner under the measure and threshold.
func minOverlap(m measure, t float64, n int) int {
	var o float64
	switch m {
	case measureJaccard:
		o = t * float64(n)
	case measureCosine:
		o = t * t * float64(n)
	case measureDice:
		o = t / (2 - t) * float64(n)
	}
	v := int(math.Ceil(o - 1e-9))
	if v < 1 {
		v = 1
	}
	return v
}

// pairMinOverlap returns the minimum |x∩y| two records of sizes n1 and n2
// must share to clear the threshold — the bound behind the positional
// filter and the bounded verify. Its slack (1e-6) is deliberately wider
// than the verifier's 1e-12 so the filters never prune a pair the exact
// float comparison would keep.
//
//emlint:zeroalloc
func pairMinOverlap(m measure, t float64, n1, n2 int) int {
	var o float64
	switch m {
	case measureJaccard:
		o = t / (1 + t) * float64(n1+n2)
	case measureCosine:
		o = t * math.Sqrt(float64(n1)*float64(n2))
	case measureDice:
		o = t / 2 * float64(n1+n2)
	}
	v := int(math.Ceil(o - 1e-6))
	if v < 1 {
		v = 1
	}
	return v
}

// sizeBounds returns the inclusive [lo, hi] partner-size window for a
// record of size n under the measure and threshold.
func sizeBounds(m measure, t float64, n int) (lo, hi int) {
	switch m {
	case measureJaccard:
		lo = int(math.Ceil(t*float64(n) - 1e-9))
		hi = int(math.Floor(float64(n)/t + 1e-9))
	case measureCosine:
		lo = int(math.Ceil(t*t*float64(n) - 1e-9))
		hi = int(math.Floor(float64(n)/(t*t) + 1e-9))
	case measureDice:
		lo = int(math.Ceil(t/(2-t)*float64(n) - 1e-9))
		hi = int(math.Floor((2-t)/t*float64(n) + 1e-9))
	}
	if lo < 1 {
		lo = 1
	}
	return lo, hi
}

// simFromOverlap computes the exact similarity from a verified overlap and
// the two set sizes, mirroring the formulas of package sim bit for bit.
func simFromOverlap(m measure, inter, n1, n2 int) float64 {
	switch m {
	case measureJaccard:
		union := n1 + n2 - inter
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	case measureCosine:
		if n1 == 0 || n2 == 0 {
			return 0
		}
		return float64(inter) / math.Sqrt(float64(n1)*float64(n2))
	default:
		if n1+n2 == 0 {
			return 1
		}
		return 2 * float64(inter) / float64(n1+n2)
	}
}

// posting locates one indexed prefix token: which right-side record holds
// it (its position in the size-sorted order) and at which position of that
// record's canonical token order.
type posting struct{ rec, pos int32 }

// joinIndex is the probe-side view of the indexed right collection.
//
// Records are sorted by ascending token-set size (stable, so equal sizes
// keep their input order — the output is sorted at the end either way),
// which buys length-bucketed candidate generation: a probe's size window
// [lo, hi] becomes one contiguous record-index range found by two binary
// searches, postings lists are size-sorted for free (they are built in
// record order), and the per-candidate size check disappears.
//
// Each indexed token holds either an array postings list (posts[t]) or,
// once the list passes options.BitmapPostingMin, a compressed bitmap over
// record positions (bitmaps[t]) — high-frequency tokens stop costing 8
// bytes per occurrence and intersect by whole 64-record words. Records at
// or above options.DenseMinTokens also carry their token set as a
// bitvec.Set (dense[j]) for the bitset verifier.
type joinIndex struct {
	pr    []intRec
	sizes []int         // sizes[j] = len(pr[j].toks), ascending
	posts [][]posting   // array postings, nil where bitmaps[t] != nil
	bits  []*bitvec.Set // bitmap postings for high-frequency tokens
	dense []*bitvec.Set // token bitsets of dense records, else nil
}

// buildIndex size-sorts the right collection and indexes each record's
// prefix (per prefixFor) under its tokens. nids is the remapped ID-space
// size from prepare.
func buildIndex(pr []intRec, nids int, prefixFor func(n int) int, opts options) *joinIndex {
	idx := &joinIndex{pr: pr}
	sort.SliceStable(idx.pr, func(a, b int) bool { return len(idx.pr[a].toks) < len(idx.pr[b].toks) })
	idx.sizes = make([]int, len(idx.pr))
	for j, rec := range idx.pr {
		idx.sizes[j] = len(rec.toks)
	}
	idx.posts = make([][]posting, nids)
	denseMin := opts.denseMinTokens()
	idx.dense = make([]*bitvec.Set, len(idx.pr))
	for j, rec := range idx.pr {
		n := len(rec.toks)
		if n >= denseMin {
			idx.dense[j] = bitvec.FromSorted(rec.toks)
		}
		prefix := prefixFor(n)
		for p := 0; p < prefix; p++ {
			t := rec.toks[p]
			idx.posts[t] = append(idx.posts[t], posting{int32(j), int32(p)})
		}
	}
	// Flip high-frequency postings lists to bitmaps. Record positions are
	// ascending within each list (built in record order), so they feed
	// bitvec.FromSorted directly.
	bitmapMin := opts.bitmapPostingMin()
	var scratch []uint32
	for t, list := range idx.posts {
		if len(list) < bitmapMin {
			continue
		}
		if cap(scratch) < len(list) {
			scratch = make([]uint32, len(list))
		}
		scratch = scratch[:len(list)]
		for i, post := range list {
			scratch[i] = uint32(post.rec)
		}
		if idx.bits == nil {
			idx.bits = make([]*bitvec.Set, nids)
		}
		idx.bits[t] = bitvec.FromSorted(scratch)
		idx.posts[t] = nil
	}
	return idx
}

// sizeWindow returns the contiguous record-index range [jlo, jhi) whose
// token-set sizes fall in [lo, hi] — the length bucket a probe scans.
//
//emlint:zeroalloc
func (idx *joinIndex) sizeWindow(lo, hi int) (jlo, jhi int) {
	return sort.SearchInts(idx.sizes, lo), sort.SearchInts(idx.sizes, hi+1)
}

// probeSets builds the probe-side dense bitsets (the left counterpart of
// joinIndex.dense), nil when bitset verification is disabled or no record
// qualifies.
func probeSets(pl []intRec, opts options) []*bitvec.Set {
	denseMin := opts.denseMinTokens()
	var sets []*bitvec.Set
	for i, rec := range pl {
		if len(rec.toks) >= denseMin {
			if sets == nil {
				sets = make([]*bitvec.Set, len(pl))
			}
			sets[i] = bitvec.FromSorted(rec.toks)
		}
	}
	return sets
}

// verifyOverlap returns the exact overlap of probe and cand when it can
// still reach need (else -1, the shared early-exit convention), choosing
// the cheapest kernel the representations allow: word-level AND/popcount
// when both sides carry bitsets, per-ID contains-probing when exactly one
// side is dense and the other is enough smaller (bitsetVerifyRatio), and
// the zero-alloc bounded merge otherwise.
//
//emlint:zeroalloc
func verifyOverlap(probe []uint32, probeSet *bitvec.Set, cand []uint32, candSet *bitvec.Set, need int) int {
	if candSet != nil {
		if probeSet != nil {
			return bitvec.AndCountBounded(probeSet, candSet, need)
		}
		if len(probe)*bitsetVerifyRatio <= len(cand) {
			return bitvec.AndCountArrayBounded(candSet, probe, need)
		}
	} else if probeSet != nil && len(cand)*bitsetVerifyRatio <= len(probe) {
		return bitvec.AndCountArrayBounded(probeSet, cand, need)
	}
	return sim.IntersectSortedU32Bounded(probe, cand, need)
}

// epochScratch is the probe-local candidate-dedup structure: stamp[j] ==
// epoch marks right record j as already considered for the current probe.
// Bumping the epoch clears the whole array in O(1), replacing the
// per-probe map the join used to allocate and clear.
type epochScratch struct {
	stamp []uint32
	epoch uint32
}

func newEpochScratch(n int) *epochScratch {
	return &epochScratch{stamp: make([]uint32, n)}
}

// next starts a new probe, handling uint32 wraparound.
//
//emlint:zeroalloc
func (e *epochScratch) next() {
	e.epoch++
	if e.epoch == 0 {
		for k := range e.stamp {
			e.stamp[k] = 0
		}
		e.epoch = 1
	}
}

// mark reports whether j was already seen this probe, marking it if not.
//
//emlint:zeroalloc
//emlint:hotpath
func (e *epochScratch) mark(j int32) bool {
	if e.stamp[j] == e.epoch {
		return true
	}
	e.stamp[j] = e.epoch
	return false
}

// setJoin is the shared prefix-filter join driver over interned records.
func setJoin(l, r []IDRecord, threshold float64, m measure, opts options) ([]Pair, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("simjoin: threshold %v out of (0, 1]", threshold)
	}
	rec := obs.Or(opts.Metrics)
	join := obs.L("join", m.String())
	defer obs.StartTimer(rec, obs.SimjoinSeconds, join)()
	pl, pr, nids := prepare(l, r)

	// Index the right side: token ID -> postings of the records holding
	// the token within their prefix, size-sorted with bitmap postings for
	// high-frequency tokens and bitsets on dense records.
	idx := buildIndex(pr, nids, func(n int) int {
		if n == 0 {
			return 0
		}
		prefix := n - minOverlap(m, threshold, n) + 1
		if prefix > n {
			prefix = n
		}
		return prefix
	}, opts)
	plSets := probeSets(pl, opts)

	// Probe the index in contiguous shards through the shared pool (kept
	// serial below probeMinWork probes — the cost gate). Candidates
	// surviving the size and positional filters (i.e. actually verified)
	// are tallied shard-locally and recorded once — the no-op path never
	// sees a per-pair recorder call.
	shards, err := parallel.MapChunksMin(opts.Workers, len(pl), probeMinWork, func(clo, chi int) (joinShard, error) {
		// Shard-local probe state, hoisted so the verify/visit closures
		// are allocated once per shard (per worker), not once per probe.
		out := make([]Pair, 0, chi-clo)
		nc := 0
		seen := newEpochScratch(len(idx.pr))
		var (
			probe intRec
			pset  *bitvec.Set
			n, p  int
		)
		// verify checks one candidate j first met at probe prefix position
		// p and candidate position pos; pos < 0 means "unknown" (bitmap
		// postings drop it), which weakens the positional filter to the
		// candidate's full length but never changes the verified result.
		verify := func(j, pos int) {
			cand := idx.pr[j]
			cn := len(cand.toks)
			need := pairMinOverlap(m, threshold, n, cn)
			// Positional filter: a qualifying pair is first met at its
			// first common token, so everything before (p, pos) is
			// disjoint and the overlap is bounded by the shorter
			// remaining suffix (PPJoin's ubound).
			rem := cn
			if pos >= 0 {
				rem = cn - pos
			}
			if ub := min(n-p, rem); ub < need {
				return
			}
			nc++
			inter := verifyOverlap(probe.toks, pset, cand.toks, idx.dense[j], need)
			if inter < 0 {
				return // suffix-length early exit: can't reach need
			}
			if s := simFromOverlap(m, inter, n, cn); s >= threshold-1e-12 {
				out = append(out, Pair{LID: probe.id, RID: cand.id, Sim: s})
			}
		}
		bmVisit := func(recPos uint32) bool {
			if j := int32(recPos); !seen.mark(j) {
				verify(int(j), -1)
			}
			return true
		}
		for i := clo; i < chi; i++ {
			probe = pl[i]
			n = len(probe.toks)
			if n == 0 {
				continue
			}
			pset = nil
			if plSets != nil {
				pset = plSets[i]
			}
			lo, hi := sizeBounds(m, threshold, n)
			jlo, jhi := idx.sizeWindow(lo, hi)
			if jlo >= jhi {
				continue
			}
			prefix := n - minOverlap(m, threshold, n) + 1
			if prefix > n {
				prefix = n
			}
			seen.next()
			for p = 0; p < prefix; p++ {
				t := probe.toks[p]
				if idx.bits != nil && idx.bits[t] != nil {
					idx.bits[t].ForEachIn(uint32(jlo), uint32(jhi), bmVisit)
					continue
				}
				list := idx.posts[t]
				// The size window is a contiguous rec range: postings are
				// rec-sorted, so binary search skips both tails wholesale.
				k := sort.Search(len(list), func(k int) bool { return int(list[k].rec) >= jlo })
				for ; k < len(list) && int(list[k].rec) < jhi; k++ {
					post := list[k]
					if seen.mark(post.rec) {
						continue
					}
					verify(int(post.rec), int(post.pos))
				}
			}
		}
		return joinShard{pairs: out, cands: nc}, nil
	})
	if err != nil {
		return nil, err
	}
	all, total := mergeShards(opts.Workers, shards)
	rec.Count(obs.SimjoinCandidates, float64(total), join)
	rec.Count(obs.SimjoinPairs, float64(len(all)), join)
	sortPairs(all)
	return all, nil
}

// mergeShards concatenates shard outputs in chunk order into one slice
// preallocated from the summed shard sizes (parallel.Concat — the copy
// itself fans out on large outputs), and totals the verified candidate
// counts.
func mergeShards(workers int, shards []joinShard) ([]Pair, int) {
	total := 0
	parts := make([][]Pair, len(shards))
	for i, s := range shards {
		parts[i] = s.pairs
		total += s.cands
	}
	return parallel.Concat(workers, parts), total
}

// OverlapJoin returns all pairs sharing at least k tokens. Sim in the
// output is the raw overlap count.
func OverlapJoin(l, r []Record, k int, opts ...JoinOption) ([]Pair, error) {
	il, ir := internRecords(l, r)
	return OverlapJoinIDs(il, ir, k, opts...)
}

// OverlapJoinIDs is OverlapJoin over pre-interned records.
func OverlapJoinIDs(l, r []IDRecord, k int, jopts ...JoinOption) ([]Pair, error) {
	opts := applyJoinOptions(jopts)
	if k < 1 {
		return nil, fmt.Errorf("simjoin: overlap threshold %d must be >= 1", k)
	}
	rec := obs.Or(opts.Metrics)
	join := obs.L("join", "overlap")
	defer obs.StartTimer(rec, obs.SimjoinSeconds, join)()
	pl, pr, nids := prepare(l, r)
	// Records with fewer than k tokens can never reach k overlaps; the
	// prefix length n-k+1 bottoms out at 0 for them, so they are simply
	// never indexed, and the probe side's size window starts at k.
	idx := buildIndex(pr, nids, func(n int) int {
		prefix := n - k + 1
		if prefix < 0 {
			return 0
		}
		return prefix
	}, opts)
	plSets := probeSets(pl, opts)
	shards, err := parallel.MapChunksMin(opts.Workers, len(pl), probeMinWork, func(clo, chi int) (joinShard, error) {
		out := make([]Pair, 0, chi-clo)
		nc := 0
		seen := newEpochScratch(len(idx.pr))
		var (
			probe intRec
			pset  *bitvec.Set
			n, p  int
		)
		verify := func(j, pos int) {
			cand := idx.pr[j]
			cn := len(cand.toks)
			// Positional filter with the fixed bound k; pos < 0 (bitmap
			// postings) falls back to the candidate's full length.
			rem := cn
			if pos >= 0 {
				rem = cn - pos
			}
			if ub := min(n-p, rem); ub < k {
				return
			}
			nc++
			if ov := verifyOverlap(probe.toks, pset, cand.toks, idx.dense[j], k); ov >= k {
				out = append(out, Pair{LID: probe.id, RID: cand.id, Sim: float64(ov)})
			}
		}
		bmVisit := func(recPos uint32) bool {
			if j := int32(recPos); !seen.mark(j) {
				verify(int(j), -1)
			}
			return true
		}
		// The overlap window is probe-independent: any record of size >= k
		// can qualify, so the length bucket is the suffix starting at the
		// first record with k tokens.
		jlo, jhi := idx.sizeWindow(k, math.MaxInt-1)
		for i := clo; i < chi; i++ {
			probe = pl[i]
			n = len(probe.toks)
			if n < k || jlo >= jhi {
				continue
			}
			pset = nil
			if plSets != nil {
				pset = plSets[i]
			}
			prefix := n - k + 1
			seen.next()
			for p = 0; p < prefix; p++ {
				t := probe.toks[p]
				if idx.bits != nil && idx.bits[t] != nil {
					idx.bits[t].ForEachIn(uint32(jlo), uint32(jhi), bmVisit)
					continue
				}
				list := idx.posts[t]
				kk := sort.Search(len(list), func(kk int) bool { return int(list[kk].rec) >= jlo })
				for ; kk < len(list) && int(list[kk].rec) < jhi; kk++ {
					post := list[kk]
					if seen.mark(post.rec) {
						continue
					}
					verify(int(post.rec), int(post.pos))
				}
			}
		}
		return joinShard{pairs: out, cands: nc}, nil
	})
	if err != nil {
		return nil, err
	}
	all, total := mergeShards(opts.Workers, shards)
	rec.Count(obs.SimjoinCandidates, float64(total), join)
	rec.Count(obs.SimjoinPairs, float64(len(all)), join)
	sortPairs(all)
	return all, nil
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].LID != ps[b].LID {
			return ps[a].LID < ps[b].LID
		}
		return ps[a].RID < ps[b].RID
	})
}
