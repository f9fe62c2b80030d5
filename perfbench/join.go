package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tsq"
	"tsq/internal/datagen"
	"tsq/internal/obs/capture"
)

// joinMarketSeed fixes the synthetic market (tsbench's default seed).
// The market's factor structure sets the join's output size, which
// ranges over an order of magnitude between generator seeds; the run
// seed instead permutes the stocks, which changes every id, the shard
// each stock lands in and the R*-tree built over them.
const joinMarketSeed = 1999

// joinDigest reduces a join or closest-pairs answer to an
// order-insensitive digest.
func joinDigest(ms []tsq.JoinMatch) capture.Digest {
	var d capture.Digest
	for _, m := range ms {
		d.Add(m.IDA<<32|m.IDB, int64(m.TransformIdx), m.Distance)
	}
	return d
}

// joinsPerPair is how many Joins the client issues per ClosestPairs; a
// join takes about a quarter of a closest-pairs call, so a run holds
// enough joins for a tail percentile.
const joinsPerPair = 5

// runJoinStocks runs Query 2 as one closed-loop client issuing
// joinsPerPair Joins per ClosestPairs over the synthetic 1,068-stock market in
// a two-shard in-memory database.
func runJoinStocks(e *env) error {
	const count, shards = 1068, 2
	market := datagen.StockMarket(joinMarketSeed, count, seriesLength, datagen.DefaultMarketOptions())
	perm := rand.New(rand.NewSource(e.seed)).Perm(count)
	ss := make([]tsq.Series, count)
	names := make([]string, count)
	for i, j := range perm {
		ss[i] = market[j]
		names[i] = fmt.Sprintf("stock%04d", j)
	}
	ts := tsq.MovingAverages(seriesLength, 10, 13)
	thr := tsq.Correlation(0.99)

	heap0 := liveHeap()
	db, setup, err := timedSetups(e.setupReps(9), func(int) (*tsq.DB, error) {
		return tsq.Open(ss, names, tsq.Options{Shards: shards})
	}, nil)
	if err != nil {
		return err
	}
	defer db.Close()
	heap := liveHeap() - heap0
	e.e2e["setup_s"] = setup
	e.e2e["bytes_per_user_byte"] = ratio(float64(heap), rawBytes(count))

	var lat [2][]time.Duration
	var split [2][]time.Duration // primary latency of the untraced and "traced" halves
	var stats [2]tsq.Stats
	var digests [2]capture.Digest
	errs := 0
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	deadline := start.Add(e.dur)
	for i := 0; time.Now().Before(deadline); i++ {
		kind := primary
		if i%(joinsPerPair+1) == joinsPerPair {
			kind = secondary
		}
		t0 := time.Now()
		var ms []tsq.JoinMatch
		var st tsq.Stats
		var err error
		if kind == primary {
			ms, st, err = db.Join(ts, thr, tsq.QueryOptions{})
		} else {
			ms, st, err = db.ClosestPairs(ts, 10, tsq.MTIndex)
		}
		d := time.Since(t0)
		e.attempted++
		if err != nil {
			errs++
			continue
		}
		dg := joinDigest(ms)
		if n := len(lat[kind]); n > 0 && dg != digests[kind] {
			e.fail("%s answer %d differs from the first", [2]string{"join", "closest pairs"}[kind], n)
		}
		digests[kind] = dg
		if kind == primary {
			// Join and ClosestPairs take no context, so no call carries a
			// trace; the traced run still halves its joins like the
			// other workloads, and their ratio reads the noise.
			split[len(lat[kind])%2] = append(split[len(lat[kind])%2], d)
		}
		lat[kind] = append(lat[kind], d)
		stats[kind].Add(st)
	}
	elapsed := time.Since(start)
	mem := readMem().sub(m0)
	if errs > 0 {
		e.fail("%d joins returned an error", errs)
	}

	// The oracle: both sequential scans once, side by side.
	var seq [2]capture.Digest
	var seqErr [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ms, _, err := db.Join(ts, thr, tsq.QueryOptions{Algorithm: tsq.SeqScan})
		seq[primary], seqErr[primary] = joinDigest(ms), err
	}()
	go func() {
		defer wg.Done()
		ms, _, err := db.ClosestPairs(ts, 10, tsq.SeqScan)
		seq[secondary], seqErr[secondary] = joinDigest(ms), err
	}()
	wg.Wait()
	for kind, name := range []string{"join", "closest pairs"} {
		e.attempted++
		switch {
		case seqErr[kind] != nil:
			e.fail("sequential-scan %s: %v", name, seqErr[kind])
		case len(lat[kind]) == 0:
			e.fail("no %s completed", name)
		case seq[kind] != digests[kind]:
			e.fail("%s digest %+v, sequential scan %+v", name, digests[kind], seq[kind])
		}
	}

	ops := float64(len(lat[primary]) + len(lat[secondary]))
	// Each kind's mean at the fixed mix, so a run that stops mid-cycle
	// weighs the kinds like every other run.
	perOp := func(f func(st tsq.Stats) int) float64 {
		return (joinsPerPair*ratio(float64(f(stats[primary])), float64(len(lat[primary]))) +
			ratio(float64(f(stats[secondary])), float64(len(lat[secondary])))) / (joinsPerPair + 1)
	}
	e.e2e["primary_p50_ms"] = quantile(lat[primary], 0.5)
	e.e2e["primary_p95_ms"] = quantile(lat[primary], 0.95)
	e.e2e["secondary_p50_ms"] = quantile(lat[secondary], 0.5)
	e.e2e["ops_per_s"] = ops / elapsed.Seconds()
	e.e2e["disk_accesses_per_query"] = perOp(func(st tsq.Stats) int { return st.DAAll + st.Candidates })

	e.record["data"] = fmt.Sprintf("%d synthetic stocks of length %d (market seed %d, order permuted by the run seed), in memory, 2 shards, no buffer pool", count, seriesLength, joinMarketSeed)
	e.record["load"] = fmt.Sprintf("1 closed-loop client; %d Join MT-index MV(10..13) corr 0.99 (primary) per ClosestPairs k=10 (secondary)", joinsPerPair)
	e.record["join_matches"] = digests[primary].Count
	e.record["primary_samples"] = len(lat[primary])
	e.record["secondary_samples"] = len(lat[secondary])
	e.record["live_heap_bytes"] = heap

	if e.trace {
		e.layers["core.join_nodes_per_op"] = perOp(func(st tsq.Stats) int { return st.DAAll })
		e.layers["core.join_comparisons_per_op"] = perOp(func(st tsq.Stats) int { return st.Comparisons })
		e.layers["core.candidates_per_query"] = perOp(func(st tsq.Stats) int { return st.Candidates })
		e.layers["series.comparisons_per_query"] = perOp(func(st tsq.Stats) int { return st.Comparisons })
		overheadAndRuntime(e, split, mem, int(ops))
	}
	return nil
}
