package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"tsq"
	"tsq/internal/core"
	"tsq/internal/obs"
	"tsq/internal/obs/capture"
)

// Operation kinds: every workload has a primary and a secondary
// operation (README.md names them per workload).
const (
	primary   = 0
	secondary = 1
)

// answer is what a checked operation returned, reduced to what the
// benchmark compares and counts.
type answer struct {
	digest  capture.Digest
	stats   tsq.Stats
	matches int
}

// readOp is one read query a client issues.
type readOp struct {
	kind int
	key  int        // identifies the query, for answer checks
	q    tsq.Series // the ad-hoc series the call featurizes; nil for by-id calls
	call func(ctx context.Context) (answer, error)
}

// layerAcc sums the per-layer split of traced read queries.
type layerAcc struct {
	ops                                                       int
	lock, features, plan, filter, probe, lb, verify, rootSelf time.Duration
	skew                                                      float64
	reads, prefetched, hits                                   int64
}

// add books one traced query. call is the facade call's wall time and
// features the benchmark-timed featurization of its ad-hoc series.
// A layer's self time is its span minus its children: probe self time
// excludes its filter and verify spans, verify self time excludes the
// lower-bound stage the verify span reports, and the root span's self
// time (the shard scatter-gather and merge) excludes the plan span and
// the busiest shard's probes, which run concurrently with the others.
func (a *layerAcc) add(tr *tsq.Trace, call, features time.Duration, shards int) {
	var root, plan, filter, verify, lb, probes time.Duration
	perShard := make([]time.Duration, shards)
	for _, s := range tr.Spans() {
		d := s.Duration()
		switch s.Kind() {
		case obs.KindQuery:
			root += d
		case obs.KindPlan:
			plan += d
			a.reads += s.Get(obs.APagesRead)
			a.hits += s.Get(obs.ABufferHits)
		case obs.KindFilter:
			filter += d
		case obs.KindVerify:
			verify += d
			lb += time.Duration(s.Get(obs.ALBNanos))
		case obs.KindProbe, obs.KindScan:
			probes += d
			if sh := int(s.Get(obs.AShard)); sh >= 0 && sh < shards {
				perShard[sh] += d
			}
			a.reads += s.Get(obs.APagesRead)
			a.prefetched += s.Get(obs.APagesPrefetched)
			a.hits += s.Get(obs.ABufferHits)
		}
	}
	var busiest, total time.Duration
	for _, d := range perShard {
		total += d
		if d > busiest {
			busiest = d
		}
	}
	a.ops++
	a.lock += nonNeg(call - root - features)
	a.features += features
	a.plan += plan
	a.filter += filter
	a.probe += nonNeg(probes - filter - verify)
	a.lb += lb
	a.verify += nonNeg(verify - lb)
	a.rootSelf += nonNeg(root - plan - busiest)
	if total > 0 {
		a.skew += float64(busiest) / (float64(total) / float64(shards))
	} else {
		a.skew++
	}
}

func (a *layerAcc) merge(b layerAcc) {
	a.ops += b.ops
	a.lock += b.lock
	a.features += b.features
	a.plan += b.plan
	a.filter += b.filter
	a.probe += b.probe
	a.lb += b.lb
	a.verify += b.verify
	a.rootSelf += b.rootSelf
	a.skew += b.skew
	a.reads += b.reads
	a.prefetched += b.prefetched
	a.hits += b.hits
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// perOpMs is a summed duration per traced query, in milliseconds.
func (a *layerAcc) perOpMs(d time.Duration) float64 {
	return ratio(float64(d)/float64(time.Millisecond), float64(a.ops))
}

// readTally collects read results of one phase.
type readTally struct {
	lat      [2][]time.Duration
	split    [2][]time.Duration // primary latency of untraced and traced calls in a traced run
	seen     [2]int             // operations issued per kind
	stats    tsq.Stats
	matches  int64
	empty    int // answers with no match
	ops      int
	errs     int
	firstErr error
	bad      int // answers that differ from an earlier answer to the same query
	layers   layerAcc
	answers  map[int]capture.Digest // first answer seen per query key
}

func newReadTally() *readTally { return &readTally{answers: map[int]capture.Digest{}} }

// do runs op, timing it from start, which is the call itself for a
// closed loop and the scheduled send time for an open loop. In a traced
// run every other operation of each kind carries a trace, so traced and
// untraced calls share the same conditions and their latencies give
// the tracing overhead.
func (t *readTally) do(op readOp, tracing bool, shards int, start time.Time) {
	traced := tracing && t.seen[op.kind]%2 == 1
	t.seen[op.kind]++
	ctx := context.Background()
	var tr *tsq.Trace
	if traced {
		tr = tsq.NewTrace()
		ctx = tsq.WithTrace(ctx, tr)
	}
	callStart := time.Now()
	a, err := op.call(ctx)
	end := time.Now()
	t.ops++
	if err != nil {
		if t.errs == 0 {
			t.firstErr = err
		}
		t.errs++
		return
	}
	t.lat[op.kind] = append(t.lat[op.kind], end.Sub(start))
	if tracing && op.kind == primary {
		t.split[b2i(traced)] = append(t.split[b2i(traced)], end.Sub(start))
	}
	t.stats.Add(a.stats)
	t.matches += int64(a.matches)
	if a.matches == 0 {
		t.empty++
	}
	if prev, ok := t.answers[op.key]; !ok {
		t.answers[op.key] = a.digest
	} else if prev != a.digest {
		t.bad++
	}
	if traced {
		var features time.Duration
		if op.q != nil {
			f0 := time.Now()
			core.NewRecord(-1, "query", op.q)
			features = time.Since(f0)
		}
		t.layers.add(tr, end.Sub(callStart), features, shards)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// merge folds another client's tally into t.
func (t *readTally) merge(o *readTally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
		t.split[k] = append(t.split[k], o.split[k]...)
	}
	t.stats.Add(o.stats)
	t.matches += o.matches
	t.empty += o.empty
	t.ops += o.ops
	if t.errs == 0 {
		t.firstErr = o.firstErr
	}
	t.errs += o.errs
	t.bad += o.bad
	t.layers.merge(o.layers)
	for k, d := range o.answers {
		if prev, ok := t.answers[k]; !ok {
			t.answers[k] = d
		} else if prev != d {
			t.bad++
		}
	}
}

// memSample brackets a phase to report its allocation and GC counts.
type memSample struct{ alloc, gcs uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, uint64(ms.NumGC)}
}

func (m memSample) sub(o memSample) memSample { return memSample{m.alloc - o.alloc, m.gcs - o.gcs} }

// closedLoop runs clients goroutines, each issuing next(client, i) for
// i = 0, 1, ... until d has passed, and returns the merged tally and
// the wall time until the last client finished.
func closedLoop(clients int, d time.Duration, tracing bool, shards int, next func(c, i int) readOp) (*readTally, time.Duration) {
	tallies := make([]*readTally, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		tallies[c] = newReadTally()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				tallies[c].do(next(c, i), tracing, shards, t0)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, t := range tallies[1:] {
		tallies[0].merge(t)
	}
	return tallies[0], elapsed
}

// readPhaseResult is the measured phase of a read workload.
type readPhaseResult struct {
	tally    *readTally
	elapsed  time.Duration
	mem      memSample // allocation and GC deltas over the phase
	captured int64     // capture journal records written during the phase
}

// readPhase runs the measured phase as a closed loop and books the
// operation counts and failures.
func readPhase(e *env, clients, shards int, next func(c, i int) readOp) readPhaseResult {
	runtime.GC()
	m0, c0 := readMem(), tsq.CaptureSnapshot().Written
	t, el := closedLoop(clients, e.dur, e.trace, shards, next)
	m1, c1 := readMem(), tsq.CaptureSnapshot().Written
	e.attempted += int64(t.ops)
	if t.errs > 0 {
		e.fail("%d read queries returned an error, the first: %v", t.errs, t.firstErr)
	}
	if t.bad > 0 {
		e.fail("%d answers differ from an earlier answer to the same query", t.bad)
	}
	return readPhaseResult{t, el, m1.sub(m0), c1 - c0}
}

// checkOracle recomputes a seeded sample of the answered queries of
// kind with the sequential-scan oracle, two at a time, and counts each
// digest that differs from the answer the timed run saw.
func checkOracle(e *env, answers map[int]capture.Digest, kind, n int, rng *rand.Rand, oracle func(key int) (capture.Digest, error)) int {
	var keys []int
	for k := range answers {
		if k/keySpace == kind {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > n {
		keys = keys[:n]
	}
	got := make([]capture.Digest, len(keys))
	errs := make([]error, len(keys))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i, k int) {
			defer wg.Done()
			defer func() { <-sem }()
			got[i], errs[i] = oracle(k)
		}(i, k)
	}
	wg.Wait()
	for i, k := range keys {
		e.attempted++
		switch {
		case errs[i] != nil:
			e.fail("oracle for query %d: %v", k, errs[i])
		case got[i] != answers[k]:
			e.fail("query %d: answer digest %+v, sequential scan %+v", k, answers[k], got[i])
		}
	}
	return len(keys)
}

// keySpace separates the query keys of the two operation kinds.
const keySpace = 1 << 20

// readMetrics books the end-to-end metrics of a closed-loop read phase:
// primary and secondary latency, throughput and disk accesses.
func readMetrics(e *env, p readPhaseResult) {
	t := p.tally
	n := float64(t.ops - t.errs)
	st := t.stats
	e.e2e["primary_p50_ms"] = quantile(t.lat[primary], 0.5)
	e.e2e["primary_p95_ms"] = quantile(t.lat[primary], 0.95)
	e.e2e["secondary_p50_ms"] = quantile(t.lat[secondary], 0.5)
	e.e2e["ops_per_s"] = n / p.elapsed.Seconds()
	e.e2e["disk_accesses_per_query"] = ratio(float64(st.DAAll+st.Candidates), n)
	e.record["primary_samples"] = len(t.lat[primary])
	e.record["secondary_samples"] = len(t.lat[secondary])
	e.record["empty_answers"] = t.empty
}

// readLayers books the per-layer metrics of a traced read phase.
func readLayers(e *env, p readPhaseResult) {
	t := p.tally
	a := &t.layers
	n := float64(t.ops - t.errs)
	st := t.stats
	e.layers["tsq.lock_wait_ms"] = a.perOpMs(a.lock)
	e.layers["dft.features_ms"] = a.perOpMs(a.features)
	e.layers["core.plan_ms"] = a.perOpMs(a.plan)
	e.layers["rtree.filter_ms"] = a.perOpMs(a.filter)
	e.layers["core.probe_ms"] = a.perOpMs(a.probe)
	e.layers["core.lb_ms"] = a.perOpMs(a.lb)
	e.layers["core.verify_ms"] = a.perOpMs(a.verify)
	e.layers["core.shard_merge_ms"] = a.perOpMs(a.rootSelf)
	e.layers["core.shard_skew"] = ratio(a.skew, float64(a.ops))
	e.layers["rtree.nodes_per_query"] = ratio(float64(st.DAAll), n)
	e.layers["rtree.leaves_per_query"] = ratio(float64(st.DALeaf), n)
	e.layers["core.candidates_per_query"] = ratio(float64(st.Candidates), n)
	e.layers["core.lb_skipped_per_query"] = ratio(float64(st.SkippedLB), n)
	e.layers["core.lb_prune_ratio"] = ratio(float64(st.SkippedLB), float64(st.SkippedLB+st.Candidates))
	e.layers["core.match_ratio"] = ratio(float64(t.matches), float64(st.Candidates))
	e.layers["series.comparisons_per_query"] = ratio(float64(st.Comparisons), n)
	e.layers["series.abandoned_ratio"] = ratio(float64(st.Abandoned), float64(st.Comparisons))
	e.layers["storage.reads_per_query"] = ratio(float64(a.reads), float64(a.ops))
	e.layers["storage.prefetched_per_query"] = ratio(float64(a.prefetched), float64(a.ops))
	e.layers["storage.hit_ratio"] = ratio(float64(a.hits), float64(a.hits+a.reads))
	e.layers["obs.capture_written_per_query"] = ratio(float64(p.captured), float64(t.ops))
}

// overheadAndRuntime books the tracing overhead, the mean latency of
// traced primary calls over untraced ones, and the runtime's allocation
// and GC counts per operation of the traced run (half its reads carry a
// trace, whose spans are a small part of a query's allocations).
func overheadAndRuntime(e *env, split [2][]time.Duration, mem memSample, ops int) {
	e.layers["obs.trace_overhead_ratio"] = ratio(mean(split[1]), mean(split[0]))
	e.layers["runtime.alloc_bytes_per_op"] = ratio(float64(mem.alloc), float64(ops))
	e.layers["runtime.gc_cycles_per_1k_ops"] = ratio(1000*float64(mem.gcs), float64(ops))
}
