package table

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements morsel-driven parallel variants of the relational
// operators (filter, hash join, group-by, order-by), mirroring the
// multithreaded GEMS backend the paper targets. Each operator splits its
// input into fixed-size row morsels, fans the morsels out over a small
// worker pool, and recombines per-worker partial results so that the
// output is deterministic and (except for floating-point summation
// order) identical to the serial operator. Every variant degrades to the
// serial path when the input is below the parallelism threshold or the
// caller grants at most one worker, so small inputs never pay goroutine
// or merge overhead and fallback results stay byte-identical.

const (
	// morselSize is the number of rows of one parallel work unit. Large
	// enough that scheduling overhead amortises, small enough that a
	// morsel's working set stays cache-resident and work stays balanced.
	morselSize = 4096

	// DefaultParThreshold is the input row count below which the
	// parallel operators fall back to their serial forms when Par leaves
	// Threshold zero: two morsels per worker at the minimum useful
	// parallelism degree.
	DefaultParThreshold = 2 * 2 * morselSize

	// joinParts is the number of hash partitions of the parallel join.
	// A fixed power of two keeps partition assignment — and therefore
	// output order — independent of the worker count.
	joinParts = 64

	// parPollMask amortises cooperative cancellation polls inside
	// per-row loops, matching the engine's established tick cadence.
	parPollMask = 1023
)

// Par configures the parallel execution of the relational operators. The
// zero value runs everything serially. The table layer deliberately has
// no dependency on the engine: cancellation and observability plug in
// through nil-safe hooks that the engine wires to its context and
// metrics registry.
type Par struct {
	// Workers is the maximum number of concurrent workers; values <= 1
	// select the serial path.
	Workers int
	// Threshold is the minimum input row count for going parallel;
	// 0 means DefaultParThreshold.
	Threshold int
	// Poll, when non-nil, is checked cooperatively (every parPollMask+1
	// rows and at every morsel boundary); a non-nil result aborts the
	// operator with that error. The engine supplies a poll that maps a
	// done context to its structured abort errors.
	Poll func() error
	// OnParallel, when non-nil, is notified once per operator run that
	// actually takes the parallel path, with the operator name, the
	// number of shards (morsels or partitions) and the worker count.
	OnParallel func(op string, shards, workers int)
	// WorkerUp / WorkerDown, when non-nil, bracket each worker
	// goroutine's lifetime (the engine ties them to its active-worker
	// gauge).
	WorkerUp   func()
	WorkerDown func()
}

// Parallel reports whether an input of the given row count takes the
// parallel path under this configuration.
func (p Par) Parallel(rows int) bool {
	th := p.Threshold
	if th <= 0 {
		th = DefaultParThreshold
	}
	return p.Workers > 1 && rows >= th
}

// poll is the amortised cooperative cancellation check for per-row
// loops; tick is worker-local.
func (p Par) poll(tick *int) error {
	if p.Poll == nil {
		return nil
	}
	*tick++
	if *tick&parPollMask != 0 {
		return nil
	}
	return p.Poll()
}

// run executes fn over each shard index on a pool of workers and returns
// the first error. Shards are handed out dynamically so uneven shards
// still balance; fn receives the worker index so operators can keep
// worker-local state (partial aggregation maps, scratch buffers). The
// poll hook is checked at every shard boundary.
func (p Par) run(op string, shards int, fn func(worker, shard int) error) error {
	if shards == 0 {
		return nil
	}
	workers := p.Workers
	if workers > shards {
		workers = shards
	}
	if p.OnParallel != nil {
		p.OnParallel(op, shards, workers)
	}
	var (
		next  int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if p.WorkerUp != nil {
				p.WorkerUp()
			}
			if p.WorkerDown != nil {
				defer p.WorkerDown()
			}
			for {
				if p.Poll != nil {
					if err := p.Poll(); err != nil {
						fail(err)
						return
					}
				}
				s := int(atomic.AddInt64(&next, 1)) - 1
				if s >= shards {
					return
				}
				if err := fn(worker, s); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// morselRanges splits [0, n) into contiguous morselSize-row ranges.
func morselRanges(n int) [][2]uint32 {
	if n == 0 {
		return nil
	}
	out := make([][2]uint32, 0, (n+morselSize-1)/morselSize)
	for lo := 0; lo < n; lo += morselSize {
		hi := lo + morselSize
		if hi > n {
			hi = n
		}
		out = append(out, [2]uint32{uint32(lo), uint32(hi)})
	}
	return out
}

// FilterIdxPar is FilterIdx evaluated over row morsels in parallel:
// every worker fills a private index buffer per morsel and the buffers
// are stitched in morsel order, so the result is the exact row-id
// sequence of the serial scan.
func FilterIdxPar(t *Table, pred Pred, p Par) ([]uint32, error) {
	return filterIdx(t.NumRows(), nil, pred, p)
}

// FilterRowsPar is FilterIdxPar over the ascending row ids in rows
// instead of every row: the scan kernel applied to an index seek's
// candidates.
func FilterRowsPar(rows []uint32, pred Pred, p Par) ([]uint32, error) {
	return filterIdx(len(rows), rows, pred, p)
}

// filterIdx evaluates pred over n rows — rows[i] when rows is non-nil,
// else row i — keeping the passing row ids in order.
func filterIdx(n int, rows []uint32, pred Pred, p Par) ([]uint32, error) {
	if !p.Parallel(n) {
		return filterIdxSerial(n, rows, pred, p)
	}
	morsels := morselRanges(n)
	bufs := make([][]uint32, len(morsels))
	err := p.run("filter", len(morsels), func(_, m int) error {
		lo, hi := morsels[m][0], morsels[m][1]
		var buf []uint32
		tick := 0
		for i := lo; i < hi; i++ {
			if err := p.poll(&tick); err != nil {
				return err
			}
			r := i
			if rows != nil {
				r = rows[i]
			}
			ok, err := pred(r)
			if err != nil {
				return err
			}
			if ok {
				buf = append(buf, r)
			}
		}
		bufs[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil, nil
	}
	idx := make([]uint32, 0, total)
	for _, b := range bufs {
		idx = append(idx, b...)
	}
	return idx, nil
}

// filterIdxSerial is the serial fallback of filterIdx; identical to
// FilterIdx plus the cooperative poll.
func filterIdxSerial(n int, rows []uint32, pred Pred, p Par) ([]uint32, error) {
	var idx []uint32
	tick := 0
	for i := uint32(0); i < uint32(n); i++ {
		if err := p.poll(&tick); err != nil {
			return nil, err
		}
		r := i
		if rows != nil {
			r = rows[i]
		}
		ok, err := pred(r)
		if err != nil {
			return nil, err
		}
		if ok {
			idx = append(idx, r)
		}
	}
	return idx, nil
}

// GroupByPar is GroupBy with parallel partial aggregation: every worker
// accumulates a static contiguous row range into a private group map,
// the partials merge in a final combine step (aggState.merge), and
// groups are re-ordered by first-occurrence row so the output rows match
// the serial operator exactly. Row ranges are static — not dynamically
// dealt morsels — so partial accumulation and merge order are fixed and
// the output (including floating-point sums, which are sensitive to
// addition order) is deterministic for a given worker count; group-by
// work is uniform per row, so static ranges lose no balance.
func GroupByPar(t *Table, name string, keyCols []int, aggs []AggSpec, p Par) (*Table, error) {
	n := t.NumRows()
	if !p.Parallel(n) {
		return GroupBy(t, name, keyCols, aggs)
	}
	shards := p.Workers
	if shards > n {
		shards = n
	}
	ranges := make([][2]uint32, shards)
	chunk, rem := n/shards, n%shards
	lo := 0
	for s := 0; s < shards; s++ {
		hi := lo + chunk
		if s < rem {
			hi++
		}
		ranges[s] = [2]uint32{uint32(lo), uint32(hi)}
		lo = hi
	}
	partials := make([]map[string]*group, shards)
	err := p.run("group", shards, func(_, s int) error {
		groups := make(map[string]*group)
		partials[s] = groups
		var key []byte
		tick := 0
		for r := ranges[s][0]; r < ranges[s][1]; r++ {
			if err := p.poll(&tick); err != nil {
				return err
			}
			key = t.KeyOf(key[:0], r, keyCols)
			g, ok := groups[string(key)]
			if !ok {
				g = &group{firstRow: r, states: make([]aggState, len(aggs))}
				groups[string(key)] = g
			}
			if err := g.accum(t, r, aggs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Combine in shard order: shard s covers strictly earlier rows than
	// shard s+1, so the first partial holding a key also holds its
	// first-occurrence row, and merging later partials into it
	// accumulates in row-range order.
	merged := make(map[string]*group)
	for _, part := range partials {
		for k, pg := range part {
			g, ok := merged[k]
			if !ok {
				merged[k] = pg
				continue
			}
			for i := range g.states {
				if err := g.states[i].merge(&pg.states[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	order := make([]*group, 0, len(merged))
	for _, g := range merged {
		order = append(order, g)
	}
	sort.Slice(order, func(a, b int) bool { return order[a].firstRow < order[b].firstRow })
	return emitGroups(t, name, keyCols, aggs, order)
}

// hashKey is FNV-1a over a canonical key encoding; it decides the join
// partition of a row deterministically.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// partitionRows splits the non-NULL-key rows of t into joinParts
// partitions by key hash. The split is morsel-parallel; per-morsel
// buckets concatenate in morsel order, so each partition lists its rows
// in ascending row order exactly as a serial scan would visit them.
func partitionRows(t *Table, cols []int, p Par) ([][]uint32, error) {
	morsels := morselRanges(t.NumRows())
	buckets := make([][][]uint32, len(morsels))
	err := p.run("join-partition", len(morsels), func(_, m int) error {
		lo, hi := morsels[m][0], morsels[m][1]
		local := make([][]uint32, joinParts)
		var key []byte
		tick := 0
		for r := lo; r < hi; r++ {
			if err := p.poll(&tick); err != nil {
				return err
			}
			if anyNull(t, r, cols) {
				continue // NULL keys never join (SQL semantics)
			}
			key = t.KeyOf(key[:0], r, cols)
			part := hashKey(key) & (joinParts - 1)
			local[part] = append(local[part], r)
		}
		buckets[m] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	parts := make([][]uint32, joinParts)
	for _, local := range buckets {
		for i, rows := range local {
			parts[i] = append(parts[i], rows...)
		}
	}
	return parts, nil
}

// HashJoinIdxPar is HashJoinIdx as a partitioned parallel hash join:
// both sides are hash-partitioned on the key columns, per-partition hash
// tables build and probe concurrently, and per-partition match lists
// stitch in partition order. The smaller side still builds and NULL keys
// still never join; output is deterministic and independent of the
// worker count (partitioning is by fixed key hash), but rows appear
// grouped by partition rather than in the serial probe order.
func HashJoinIdxPar(l, r *Table, lCols, rCols []int, p Par) (lIdx, rIdx []uint32, err error) {
	if len(lCols) != len(rCols) {
		panic("graql: HashJoinIdxPar: key arity mismatch")
	}
	if !p.Parallel(l.NumRows() + r.NumRows()) {
		lIdx, rIdx = HashJoinIdx(l, r, lCols, rCols)
		return lIdx, rIdx, nil
	}
	build, probe := l, r
	bCols, pCols := lCols, rCols
	swapped := false
	if r.NumRows() < l.NumRows() {
		build, probe = r, l
		bCols, pCols = rCols, lCols
		swapped = true
	}
	bParts, err := partitionRows(build, bCols, p)
	if err != nil {
		return nil, nil, err
	}
	pParts, err := partitionRows(probe, pCols, p)
	if err != nil {
		return nil, nil, err
	}

	type partOut struct{ b, p []uint32 } // matched (build, probe) row pairs
	outs := make([]partOut, joinParts)
	err = p.run("join-probe", joinParts, func(_, part int) error {
		bRows, pRows := bParts[part], pParts[part]
		if len(bRows) == 0 || len(pRows) == 0 {
			return nil
		}
		ht := make(map[string][]uint32, len(bRows))
		var key []byte
		tick := 0
		for _, row := range bRows {
			if err := p.poll(&tick); err != nil {
				return err
			}
			key = build.KeyOf(key[:0], row, bCols)
			ht[string(key)] = append(ht[string(key)], row)
		}
		var ob, op []uint32
		for _, row := range pRows {
			if err := p.poll(&tick); err != nil {
				return err
			}
			key = probe.KeyOf(key[:0], row, pCols)
			for _, b := range ht[string(key)] {
				ob = append(ob, b)
				op = append(op, row)
			}
		}
		outs[part] = partOut{b: ob, p: op}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o.b)
	}
	if total == 0 {
		return nil, nil, nil
	}
	lIdx = make([]uint32, 0, total)
	rIdx = make([]uint32, 0, total)
	for _, o := range outs {
		if swapped {
			lIdx = append(lIdx, o.p...)
			rIdx = append(rIdx, o.b...)
		} else {
			lIdx = append(lIdx, o.b...)
			rIdx = append(rIdx, o.p...)
		}
	}
	return lIdx, rIdx, nil
}

// HashJoinPar is HashJoin on the partitioned parallel join path.
func HashJoinPar(name string, l, r *Table, lCols, rCols []int, p Par) (*Table, error) {
	lIdx, rIdx, err := HashJoinIdxPar(l, r, lCols, rCols, p)
	if err != nil {
		return nil, err
	}
	return joinTable(name, l, r, lIdx, rIdx), nil
}

// OrderByPar is OrderBy with shard-local stable sorts and a k-way merge.
// The input splits into one contiguous shard per worker; each shard
// sorts stably in parallel (sharing sortIdxStable with the serial path)
// and a loser-selection heap merges the shard runs, breaking key ties by
// shard index. Because shards are contiguous ascending row ranges, the
// tie-break reproduces sort.SliceStable's global stability exactly.
func OrderByPar(t *Table, keys []SortKey, p Par) (*Table, error) {
	n := t.NumRows()
	if !p.Parallel(n) {
		return OrderBy(t, keys)
	}
	shards := p.Workers
	if shards > n {
		shards = n
	}
	runs := make([][]uint32, shards)
	chunk, rem := n/shards, n%shards
	lo := 0
	for s := 0; s < shards; s++ {
		hi := lo + chunk
		if s < rem {
			hi++
		}
		run := make([]uint32, hi-lo)
		for i := range run {
			run[i] = uint32(lo + i)
		}
		runs[s] = run
		lo = hi
	}
	err := p.run("sort", shards, func(_, s int) error {
		return sortIdxStable(t, keys, runs[s])
	})
	if err != nil {
		return nil, err
	}
	idx, err := mergeRuns(t, keys, runs, p)
	if err != nil {
		return nil, err
	}
	return t.Gather(t.Name, idx), nil
}

// mergeSrc is one sorted shard run being merged, addressed by its
// original shard index for stable tie-breaking.
type mergeSrc struct {
	shard int
	run   []uint32
	pos   int
}

// mergeRuns k-way merges sorted shard runs with a binary heap.
// Comparison errors (incomparable key kinds that escaped static
// analysis) abort the merge deterministically.
func mergeRuns(t *Table, keys []SortKey, runs [][]uint32, p Par) ([]uint32, error) {
	h := make([]*mergeSrc, 0, len(runs))
	total := 0
	for s, run := range runs {
		if len(run) > 0 {
			h = append(h, &mergeSrc{shard: s, run: run})
			total += len(run)
		}
	}
	less := func(a, b *mergeSrc) (bool, error) {
		c, err := compareKeys(t, keys, a.run[a.pos], b.run[b.pos])
		if err != nil {
			return false, err
		}
		if c != 0 {
			return c < 0, nil
		}
		return a.shard < b.shard, nil
	}
	var siftDown func(i int) error
	siftDown = func(i int) error {
		for {
			kid := 2*i + 1
			if kid >= len(h) {
				return nil
			}
			if r := kid + 1; r < len(h) {
				lt, err := less(h[r], h[kid])
				if err != nil {
					return err
				}
				if lt {
					kid = r
				}
			}
			lt, err := less(h[kid], h[i])
			if err != nil {
				return err
			}
			if !lt {
				return nil
			}
			h[i], h[kid] = h[kid], h[i]
			i = kid
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		if err := siftDown(i); err != nil {
			return nil, err
		}
	}
	idx := make([]uint32, 0, total)
	tick := 0
	for len(h) > 0 {
		if err := p.poll(&tick); err != nil {
			return nil, err
		}
		top := h[0]
		idx = append(idx, top.run[top.pos])
		top.pos++
		if top.pos == len(top.run) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if err := siftDown(0); err != nil {
			return nil, err
		}
	}
	return idx, nil
}
