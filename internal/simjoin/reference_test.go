package simjoin

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// This file preserves the pre-interning string-kernel join: per-record
// token sorting by a map-backed frequency table, a map[string][]posting
// index, a per-probe map[int]bool candidate set, and map-based set
// intersection per verification. It is the oracle of the equivalence tests
// (TestInternedJoinsMatchReference): the live joins must reproduce its
// output bit for bit.

// refPrepared is a record with canonicalized (deduped, globally ordered)
// string tokens.
type refPrepared struct {
	id   string
	toks []string // ordered by ascending global frequency
}

// refPrepare dedups all records' tokens and orders them rarest-first by the
// combined document frequency of both collections.
func refPrepare(l, r []Record) (pl, pr []refPrepared) {
	freq := make(map[string]int)
	dedup := func(rs []Record) [][]string {
		out := make([][]string, len(rs))
		for i, rec := range rs {
			seen := make(map[string]bool, len(rec.Tokens))
			toks := make([]string, 0, len(rec.Tokens))
			for _, t := range rec.Tokens {
				if !seen[t] {
					seen[t] = true
					toks = append(toks, t)
				}
			}
			out[i] = toks
			for _, t := range toks {
				freq[t]++
			}
		}
		return out
	}
	lt := dedup(l)
	rt := dedup(r)
	order := func(toks []string) {
		sort.Slice(toks, func(a, b int) bool {
			fa, fb := freq[toks[a]], freq[toks[b]]
			if fa != fb {
				return fa < fb
			}
			return toks[a] < toks[b]
		})
	}
	pl = make([]refPrepared, len(l))
	for i := range l {
		order(lt[i])
		pl[i] = refPrepared{id: l[i].ID, toks: lt[i]}
	}
	pr = make([]refPrepared, len(r))
	for i := range r {
		order(rt[i])
		pr[i] = refPrepared{id: r[i].ID, toks: rt[i]}
	}
	return pl, pr
}

// refIntersection is the map-based set intersection of the string kernels.
func refIntersection(a, b []string) (inter, sizeA, sizeB int) {
	sa := make(map[string]bool, len(a))
	for _, t := range a {
		sa[t] = true
	}
	sb := make(map[string]bool, len(b))
	for _, t := range b {
		sb[t] = true
	}
	small, large := sa, sb
	if len(small) > len(large) {
		small, large = large, small
	}
	for t := range small {
		if large[t] {
			inter++
		}
	}
	return inter, len(sa), len(sb)
}

func refVerify(m measure, a, b []string) float64 {
	inter, sa, sb := refIntersection(a, b)
	return simFromOverlap(m, inter, sa, sb)
}

// ReferenceJaccardJoin is the retained string-kernel JaccardJoin.
func ReferenceJaccardJoin(l, r []Record, threshold float64, opts ...JoinOption) ([]Pair, error) {
	return refSetJoin(l, r, threshold, measureJaccard, applyJoinOptions(opts))
}

// ReferenceCosineJoin is the retained string-kernel CosineJoin.
func ReferenceCosineJoin(l, r []Record, threshold float64, opts ...JoinOption) ([]Pair, error) {
	return refSetJoin(l, r, threshold, measureCosine, applyJoinOptions(opts))
}

// ReferenceDiceJoin is the retained string-kernel DiceJoin.
func ReferenceDiceJoin(l, r []Record, threshold float64, opts ...JoinOption) ([]Pair, error) {
	return refSetJoin(l, r, threshold, measureDice, applyJoinOptions(opts))
}

// refSetJoin is the retained string-kernel prefix-filter driver.
func refSetJoin(l, r []Record, threshold float64, m measure, opts options) ([]Pair, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("simjoin: threshold %v out of (0, 1]", threshold)
	}
	pl, pr := refPrepare(l, r)

	type strPosting struct{ rec, pos int }
	index := make(map[string][]strPosting)
	for j, rec := range pr {
		n := len(rec.toks)
		if n == 0 {
			continue
		}
		prefix := n - minOverlap(m, threshold, n) + 1
		if prefix > n {
			prefix = n
		}
		for p := 0; p < prefix; p++ {
			index[rec.toks[p]] = append(index[rec.toks[p]], strPosting{j, p})
		}
	}

	shards, err := parallel.MapChunks(opts.Workers, len(pl), func(clo, chi int) (joinShard, error) {
		out := make([]Pair, 0, chi-clo)
		seen := make(map[int]bool)
		for i := clo; i < chi; i++ {
			rec := pl[i]
			n := len(rec.toks)
			if n == 0 {
				continue
			}
			lo, hi := sizeBounds(m, threshold, n)
			prefix := n - minOverlap(m, threshold, n) + 1
			if prefix > n {
				prefix = n
			}
			for k := range seen {
				delete(seen, k)
			}
			for p := 0; p < prefix; p++ {
				for _, post := range index[rec.toks[p]] {
					if seen[post.rec] {
						continue
					}
					seen[post.rec] = true
					cand := pr[post.rec]
					if len(cand.toks) < lo || len(cand.toks) > hi {
						continue
					}
					if s := refVerify(m, rec.toks, cand.toks); s >= threshold-1e-12 {
						out = append(out, Pair{LID: rec.id, RID: cand.id, Sim: s})
					}
				}
			}
		}
		return joinShard{pairs: out}, nil
	})
	if err != nil {
		return nil, err
	}
	all, _ := mergeShards(opts.Workers, shards)
	sortPairs(all)
	return all, nil
}

// ReferenceOverlapJoin is the retained string-kernel OverlapJoin.
func ReferenceOverlapJoin(l, r []Record, k int, jopts ...JoinOption) ([]Pair, error) {
	opts := applyJoinOptions(jopts)
	if k < 1 {
		return nil, fmt.Errorf("simjoin: overlap threshold %d must be >= 1", k)
	}
	pl, pr := refPrepare(l, r)
	index := make(map[string][]int)
	for j, rec := range pr {
		n := len(rec.toks)
		if n == 0 {
			continue
		}
		prefix := n - k + 1
		if prefix < 1 {
			continue
		}
		for p := 0; p < prefix; p++ {
			index[rec.toks[p]] = append(index[rec.toks[p]], j)
		}
	}
	shards, err := parallel.MapChunks(opts.Workers, len(pl), func(clo, chi int) (joinShard, error) {
		out := make([]Pair, 0, chi-clo)
		seen := make(map[int]bool)
		for i := clo; i < chi; i++ {
			rec := pl[i]
			n := len(rec.toks)
			if n < k {
				continue
			}
			prefix := n - k + 1
			for key := range seen {
				delete(seen, key)
			}
			for p := 0; p < prefix; p++ {
				for _, j := range index[rec.toks[p]] {
					if seen[j] {
						continue
					}
					seen[j] = true
					if ov, _, _ := refIntersection(rec.toks, pr[j].toks); ov >= k {
						out = append(out, Pair{LID: rec.id, RID: pr[j].id, Sim: float64(ov)})
					}
				}
			}
		}
		return joinShard{pairs: out}, nil
	})
	if err != nil {
		return nil, err
	}
	all, _ := mergeShards(opts.Workers, shards)
	sortPairs(all)
	return all, nil
}
