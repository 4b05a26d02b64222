package simjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// denseRandomRecords builds records with large token sets over a small
// vocabulary, so that low DenseMinTokens / BitmapPostingMin knobs force
// every special-cased path: bitset-vs-bitset verification, asymmetric
// contains-probe verification, and bitmap postings on hot tokens.
func denseRandomRecords(n, minToks, maxToks int, rng *rand.Rand) []Record {
	const vocabSize = 120
	out := make([]Record, n)
	for i := range out {
		k := minToks + rng.Intn(maxToks-minToks+1)
		toks := make([]string, k)
		for j := range toks {
			idx := rng.Intn(vocabSize)
			if rng.Intn(2) == 0 {
				idx = rng.Intn(vocabSize/4 + 1) // skew: hot tokens
			}
			toks[j] = fmt.Sprintf("t%d", idx)
		}
		out[i] = Record{ID: fmt.Sprintf("r%d", i), Tokens: toks}
	}
	return out
}

// TestBitsetPathsBitIdentical is the equivalence oracle of the tentpole
// representation change: the same join run with bitmap postings and bitset
// verification forced on (tiny knobs) must be bit-identical — pairs AND
// similarity floats — to the run with both disabled (pure array postings
// and merge verification), at every worker count.
func TestBitsetPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Mix of sparse and dense probes so both sides of each knob threshold
	// appear in one join.
	mk := func() []Record {
		return append(denseRandomRecords(40, 20, 60, rng), denseRandomRecords(40, 1, 6, rng)...)
	}
	l, r := mk(), mk()
	off := []JoinOption{WithDenseMinTokens(-1), WithBitmapPostingMin(-1)}
	joins := []struct {
		name string
		run  func(opts ...JoinOption) ([]Pair, error)
	}{
		{"jaccard", func(o ...JoinOption) ([]Pair, error) { return JaccardJoin(l, r, 0.4, o...) }},
		{"cosine", func(o ...JoinOption) ([]Pair, error) { return CosineJoin(l, r, 0.6, o...) }},
		{"dice", func(o ...JoinOption) ([]Pair, error) { return DiceJoin(l, r, 0.5, o...) }},
		{"overlap", func(o ...JoinOption) ([]Pair, error) { return OverlapJoin(l, r, 3, o...) }},
	}
	for _, j := range joins {
		want, err := j.run(off...)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle produced no pairs — workload too sparse to test anything", j.name)
		}
		for _, denseMin := range []int{2, 16} {
			for _, bitmapMin := range []int{2, 8} {
				for _, workers := range []int{1, 4} {
					got, err := j.run(WithWorkers(workers), WithDenseMinTokens(denseMin), WithBitmapPostingMin(bitmapMin))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s dense=%d bitmap=%d workers=%d: %d pairs != reference %d (bit-identity broken)",
							j.name, denseMin, bitmapMin, workers, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestBitsetKnobsAsymmetric pins the one-sided dense cases: a dense left
// side probing a sparse right side (and vice versa) exercises the
// contains-probe verifier in both directions.
func TestBitsetKnobsAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dense := denseRandomRecords(50, 30, 70, rng)
	sparse := denseRandomRecords(50, 1, 5, rng)
	for _, tc := range []struct {
		name string
		l, r []Record
	}{
		{"dense_probes_sparse", dense, sparse},
		{"sparse_probes_dense", sparse, dense},
	} {
		want, err := JaccardJoin(tc.l, tc.r, 0.1, WithDenseMinTokens(-1), WithBitmapPostingMin(-1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := JaccardJoin(tc.l, tc.r, 0.1, WithDenseMinTokens(8), WithBitmapPostingMin(4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d pairs != reference %d", tc.name, len(got), len(want))
		}
	}
}

// TestBitmapPostingsBuilt sanity-checks that the tiny knobs actually flip
// postings to bitmaps in buildIndex — guarding the tests above against
// silently testing the array path twice.
func TestBitmapPostingsBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	l := denseRandomRecords(60, 10, 30, rng)
	il, _ := internRecords(l, l)
	_, pr, nids := prepare(nil, il)
	idx := buildIndex(pr, nids, func(n int) int { return n }, options{BitmapPostingMin: 4})
	if idx.bits == nil {
		t.Fatal("BitmapPostingMin=4 on a hot vocabulary built no bitmap postings")
	}
	nbits := 0
	for t2, b := range idx.bits {
		if b != nil {
			nbits++
			if idx.posts[t2] != nil {
				t.Fatalf("token %d holds both array and bitmap postings", t2)
			}
		}
	}
	if nbits == 0 {
		t.Fatal("bitmap postings array allocated but empty")
	}
	// Dense records carry bitsets at the default threshold only when big
	// enough; with DenseMinTokens=-1 nothing does.
	idxOff := buildIndex(pr, nids, func(n int) int { return n }, options{DenseMinTokens: -1})
	for _, d := range idxOff.dense {
		if d != nil {
			t.Fatal("DenseMinTokens=-1 still built record bitsets")
		}
	}
}
