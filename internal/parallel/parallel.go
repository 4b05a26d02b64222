// Package parallel is the shared concurrency substrate of the
// reproduction: a bounded worker pool with deterministic result ordering
// and first-error propagation. Every hot path that fans out across cores —
// random-forest training, cross-validation folds, blocker probe loops,
// feature extraction — goes through these helpers so the "Workers" knob
// behaves identically everywhere (0 means GOMAXPROCS, matching
// simjoin.WithWorkers and OverlapBlocker).
//
// The helpers guarantee that concurrency never changes observable output:
// results land in caller-visible slots keyed by input index, so a pipeline
// run at Workers=8 is bit-identical to the same run at Workers=1.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Resolve returns the effective worker count for a Workers knob: the knob
// itself when positive, otherwise GOMAXPROCS. This is the single place the
// "0 means GOMAXPROCS" convention is defined.
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// serialFallbacks counts fan-outs the cost gate sent down the serial path
// because the input was below MinWork. Exposed via SerialFallbacks and
// mirrored to the recorder installed with SetRecorder, so the gate's
// behavior is observable (benchem reports it; tests assert on it).
var serialFallbacks atomic.Int64

// gateRecorder optionally mirrors fallback counts into an obs.Recorder.
var gateRecorder atomic.Pointer[obs.Recorder]

// SetRecorder installs a process-wide recorder that receives one
// obs.ParallelSerialFallbacks count per gated fallback. The parallel
// helpers are free functions, so unlike the per-type Metrics fields this
// hook is global; nil uninstalls it.
func SetRecorder(r obs.Recorder) {
	if r == nil {
		gateRecorder.Store(nil)
		return
	}
	gateRecorder.Store(&r)
}

// SerialFallbacks returns the number of fan-outs the cost gate kept
// serial since process start.
func SerialFallbacks() int64 { return serialFallbacks.Load() }

// countFallback records one gated serial fallback.
func countFallback() {
	serialFallbacks.Add(1)
	if r := gateRecorder.Load(); r != nil {
		(*r).Count(obs.ParallelSerialFallbacks, 1)
	}
}

// Gate applies the fan-out cost model: it returns the effective worker
// count for n items of which minWork is the smallest batch worth spinning
// up goroutines for. Inputs below minWork run serially — the spawn,
// scheduling, and merge overhead of a fan-out is on the order of tens of
// microseconds, so tiny batches lose outright — and each such decision is
// counted (SerialFallbacks / obs.ParallelSerialFallbacks). A workers knob
// of 1 is an explicit caller choice, not a gate decision, and is not
// counted.
func Gate(workers, n, minWork int) int {
	w := Resolve(workers)
	if w <= 1 || n <= 1 {
		return 1
	}
	if n < minWork {
		countFallback()
		return 1
	}
	return w
}

// ForEachMin is ForEach behind the cost gate: fn fans out only when n
// clears minWork items.
func ForEachMin(workers, n, minWork int, fn func(i int) error) error {
	return ForEach(Gate(workers, n, minWork), n, fn)
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines (0 means GOMAXPROCS). Items are claimed dynamically, so
// uneven per-item cost balances across workers. If any call fails, ForEach
// stops claiming new items and returns the error of the lowest index among
// the failures it observed; items after a failure may be skipped, so
// callers must treat a non-nil error as "output undefined".
//
// workers == 1 and n == 1 short-circuit to a plain loop: no goroutine,
// channel, or WaitGroup is set up, so wrapping tiny inputs in ForEach
// costs nothing over writing the loop by hand.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachShard(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachShard is ForEach with a worker identity: fn(shard, i) receives
// the stable index of the worker goroutine running it (0 <= shard <
// effective workers, always 0 on the serial path). Call sites use it to
// reuse per-worker scratch — allocate one scratch per shard up front,
// index it with shard inside fn — instead of allocating per task or
// falling back to a sync.Pool.
func ForEachShard(workers, n int, fn func(shard, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = -1
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(shard, i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines
// and returns the results in index order, so output is independent of
// scheduling. On error the partial results are discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Chunks splits [0, n) into at most parts contiguous [lo, hi) ranges of
// near-equal size, in order. Empty ranges are omitted, so every returned
// chunk is non-empty and their concatenation is exactly [0, n).
func Chunks(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for w := 0; w < parts; w++ {
		lo, hi := w*n/parts, (w+1)*n/parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// MapChunks shards [0, n) into contiguous ranges (one per worker after
// resolving the knob), runs fn(lo, hi) on each concurrently, and returns
// the per-chunk results in chunk order. It is the sharding primitive the
// blockers use: each worker fills a local buffer for its range and the
// caller concatenates the buffers in order, reproducing the serial output
// exactly. Because there is exactly one chunk per worker, chunk-local
// state inside fn (scratch buffers, epoch stamps) is per-worker state.
func MapChunks[T any](workers, n int, fn func(lo, hi int) (T, error)) ([]T, error) {
	chunks := Chunks(n, Resolve(workers))
	return Map(len(chunks), len(chunks), func(ci int) (T, error) {
		return fn(chunks[ci][0], chunks[ci][1])
	})
}

// MapChunksMin is MapChunks with per-call-site chunk sizing: no chunk is
// smaller than minWork items, so tiny inputs produce fewer chunks — down
// to one, which runs serially with no goroutine setup (counted as a cost-
// gate fallback). Call sites pick minWork to cover their per-chunk fixed
// cost: a simjoin shard allocates an epoch-stamp array over the whole
// right side, so probing 50 records across 8 chunks would pay that setup
// 8 times for no win.
func MapChunksMin[T any](workers, n, minWork int, fn func(lo, hi int) (T, error)) ([]T, error) {
	w := Resolve(workers)
	if minWork > 0 && w > 1 && n > 0 {
		if maxParts := n / minWork; maxParts < w {
			if maxParts < 1 {
				maxParts = 1
			}
			w = maxParts
			if w == 1 {
				countFallback()
			}
		}
	}
	chunks := Chunks(n, w)
	return Map(len(chunks), len(chunks), func(ci int) (T, error) {
		return fn(chunks[ci][0], chunks[ci][1])
	})
}

// concatMinWork is the element count below which Concat's parallel copy
// cannot beat a single memmove loop.
const concatMinWork = 1 << 14

// Concat merges per-chunk result slices into one slice preallocated from
// the summed lengths. Small totals run the plain sequential append;
// large ones copy every part concurrently into its precomputed offset —
// each destination range is disjoint, so the merge is race-free and the
// result is the exact in-order concatenation either way. This replaces
// the serial append loop that made MapChunks merges a sequential tail on
// multi-megabyte blocker outputs.
func Concat[T any](workers int, parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, total)
	if total < concatMinWork || len(parts) < 2 || Resolve(workers) <= 1 {
		off := 0
		for _, p := range parts {
			off += copy(out[off:], p)
		}
		return out
	}
	offs := make([]int, len(parts))
	off := 0
	for i, p := range parts {
		offs[i] = off
		off += len(p)
	}
	// Copies cannot fail; ignore the always-nil error.
	//emlint:allow errdrop -- the copy closure returns a constant nil, so ForEach cannot fail
	_ = ForEach(workers, len(parts), func(i int) error {
		copy(out[offs[i]:], parts[i])
		return nil
	})
	return out
}
