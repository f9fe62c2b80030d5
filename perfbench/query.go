package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tsq"
	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/obs/capture"
)

// seriesLength is the paper's series length, used by every workload.
const seriesLength = 128

// timedSetups builds the database reps times, timing each build, and
// returns the last one with the median build time in seconds. Earlier
// builds are closed and passed to discard (outside the timed region)
// before the next one starts.
func timedSetups(reps int, build func(rep int) (*tsq.DB, error), discard func(rep int)) (*tsq.DB, float64, error) {
	var times []time.Duration
	var db *tsq.DB
	for r := 0; r < reps; r++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, 0, fmt.Errorf("closing setup %d: %w", r-1, err)
			}
			db = nil
			if discard != nil {
				discard(r - 1)
			}
		}
		runtime.GC()
		t0 := time.Now()
		d, err := build(r)
		if err != nil {
			return nil, 0, fmt.Errorf("setup %d: %w", r, err)
		}
		times = append(times, time.Since(t0))
		db = d
	}
	return db, medianSeconds(times), nil
}

// rawBytes is the size of count series of the benchmark's length as
// the user hands them over: 8-byte floats.
func rawBytes(count int) float64 { return float64(count) * seriesLength * 8 }

// runQueryHot is the read-only, CPU-bound workload: GOMAXPROCS
// closed-loop clients issue the Fig. 5 range query and k-NN over the
// same transformation set, by stored-series id, against an in-memory
// database that fits.
func runQueryHot(e *env) error {
	const count = 16000
	ss := datagen.RandomWalks(e.seed, count, seriesLength)
	ts := tsq.MovingAverages(seriesLength, 10, 25)
	thr := tsq.Correlation(0.96)
	clients := runtime.GOMAXPROCS(0)

	heap0 := liveHeap()
	db, setup, err := timedSetups(e.setupReps(3), func(int) (*tsq.DB, error) {
		return tsq.Open(ss, nil, tsq.Options{})
	}, nil)
	if err != nil {
		return err
	}
	defer db.Close()
	heap := liveHeap() - heap0
	e.e2e["setup_s"] = setup
	e.e2e["bytes_per_user_byte"] = ratio(float64(heap), rawBytes(count))

	rng := rand.New(rand.NewSource(e.seed))
	rangeIDs := make([]int64, 1024)
	for i := range rangeIDs {
		rangeIDs[i] = rng.Int63n(count)
	}
	nnQueries := make([]tsq.Series, 64)
	for i := range nnQueries {
		nnQueries[i] = db.Get(rng.Int63n(count))
	}
	rangeOp := func(p int) readOp {
		id := rangeIDs[p]
		return readOp{kind: primary, key: p, call: func(ctx context.Context) (answer, error) {
			m, st, err := db.RangeByIDCtx(ctx, id, ts, thr, tsq.QueryOptions{})
			return answer{core.AnswerDigestRange(m), st, len(m)}, err
		}}
	}
	nnOp := func(p int) readOp {
		q := nnQueries[p]
		return readOp{kind: secondary, key: keySpace + p, q: q, call: func(ctx context.Context) (answer, error) {
			m, st, err := db.NearestNeighborsCtx(ctx, q, ts, 10, tsq.QueryOptions{})
			return answer{core.AnswerDigestNN(m), st, len(m)}, err
		}}
	}
	m := newMix(clients, 10, len(rangeIDs), len(nnQueries))
	phase := readPhase(e, clients, 1, func(c, i int) readOp {
		kind, p := m.pick(c, i)
		if kind == secondary {
			return nnOp(p)
		}
		return rangeOp(p)
	})

	answers := phase.tally.answers
	checked := checkOracle(e, answers, primary, 4, rng, func(key int) (capture.Digest, error) {
		m, _, err := db.RangeByID(rangeIDs[key], ts, thr, tsq.QueryOptions{Algorithm: tsq.SeqScan})
		return core.AnswerDigestRange(m), err
	})
	checked += checkOracle(e, answers, secondary, 2, rng, func(key int) (capture.Digest, error) {
		m, _, err := db.NearestNeighbors(nnQueries[key-keySpace], ts, 10, tsq.QueryOptions{Algorithm: tsq.SeqScan})
		return core.AnswerDigestNN(m), err
	})

	e.record["data"] = fmt.Sprintf("%d random walks of length %d (Fig. 5 generator), in memory, insertion-built R*-tree, 1 shard, no buffer pool", count, seriesLength)
	e.record["load"] = fmt.Sprintf("%d closed-loop clients; 9 of 10 ops RangeByID MT-index MV(10..25) corr 0.96 (primary), 1 of 10 NearestNeighbors k=10 (secondary)", clients)
	e.record["oracle_checked"] = checked
	e.record["live_heap_bytes"] = heap
	readMetrics(e, phase)
	if e.trace {
		readLayers(e, phase)
		overheadAndRuntime(e, phase.tally.split, phase.mem, phase.tally.ops)
	}
	return nil
}

// mix chooses the operations of closed-loop clients: every every-th
// operation of a client is secondary, and each kind walks its seeded
// query pool round-robin with the clients interleaved, so a run issues
// as many distinct queries as the pool holds.
type mix struct {
	every, clients int
	pools          [2]int
	issued         [][2]int // per client and kind; each client touches its own
}

func newMix(clients, every, primaryPool, secondaryPool int) *mix {
	return &mix{every: every, clients: clients, pools: [2]int{primaryPool, secondaryPool}, issued: make([][2]int, clients)}
}

// pick returns the kind and pool index of client c's i-th operation.
func (m *mix) pick(c, i int) (kind, index int) {
	kind = primary
	if i%m.every == m.every-1 {
		kind = secondary
	}
	n := m.issued[c][kind]
	m.issued[c][kind]++
	return kind, (n*m.clients + c) % m.pools[kind]
}

// perturbed returns s plus seeded Gaussian noise of the given standard
// deviation: an ad-hoc query close to a stored series.
func perturbed(rng *rand.Rand, s tsq.Series, sigma float64) tsq.Series {
	q := make(tsq.Series, len(s))
	for i, v := range s {
		q[i] = v + rng.NormFloat64()*sigma
	}
	return q
}

// runQueryCold is the read-only, I/O-heavy workload: one closed-loop
// client issues ad-hoc range queries under the Auto planner (and an
// ad-hoc k-NN every tenth operation) against a two-shard file-backed
// database reopened with no buffer pool, with the capture journal on.
func runQueryCold(e *env) error {
	const count, shards = 20000, 2
	ss := datagen.RandomWalks(e.seed, count, seriesLength)
	ts := tsq.MovingAverages(seriesLength, 10, 25)
	thr := tsq.Correlation(0.99)

	repDir := func(rep int) string { return filepath.Join(e.workDir, fmt.Sprintf("cold%d", rep)) }
	var created int64
	db, setup, err := timedSetups(e.setupReps(3), func(rep int) (*tsq.DB, error) {
		if err := os.MkdirAll(repDir(rep), 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(repDir(rep), "db")
		db, err := tsq.CreateFile(path, ss, nil, tsq.Options{BulkLoad: true, Shards: shards})
		if err != nil {
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		if created, err = dirBytes(repDir(rep), "db"); err != nil {
			return nil, err
		}
		return tsq.OpenFile(path)
	}, func(rep int) { os.RemoveAll(repDir(rep)) })
	if err != nil {
		return err
	}
	defer db.Close()
	e.e2e["setup_s"] = setup
	e.e2e["bytes_per_user_byte"] = ratio(float64(created), rawBytes(count))

	rng := rand.New(rand.NewSource(e.seed))
	rangeQs := make([]tsq.Series, 1024)
	for i := range rangeQs {
		rangeQs[i] = perturbed(rng, ss[rng.Intn(count)], 100)
	}
	nnQs := make([]tsq.Series, 64)
	for i := range nnQs {
		nnQs[i] = perturbed(rng, ss[rng.Intn(count)], 100)
	}
	auto := tsq.QueryOptions{Algorithm: tsq.Auto}
	rangeOp := func(p int) readOp {
		q := rangeQs[p]
		return readOp{kind: primary, key: p, q: q, call: func(ctx context.Context) (answer, error) {
			m, st, err := db.RangeCtx(ctx, q, ts, thr, auto)
			return answer{core.AnswerDigestRange(m), st, len(m)}, err
		}}
	}
	nnOp := func(p int) readOp {
		q := nnQs[p]
		return readOp{kind: secondary, key: keySpace + p, q: q, call: func(ctx context.Context) (answer, error) {
			m, st, err := db.NearestNeighborsCtx(ctx, q, ts, 10, tsq.QueryOptions{})
			return answer{core.AnswerDigestNN(m), st, len(m)}, err
		}}
	}

	capPath := filepath.Join(e.workDir, "capture.log")
	if _, err := tsq.EnableCapture(capPath, tsq.CaptureOptions{}); err != nil {
		return err
	}
	m := newMix(1, 10, len(rangeQs), len(nnQs))
	phase := readPhase(e, 1, shards, func(c, i int) readOp {
		kind, p := m.pick(c, i)
		if kind == secondary {
			return nnOp(p)
		}
		return rangeOp(p)
	})
	cs := tsq.CaptureSnapshot()
	if err := tsq.DisableCapture(); err != nil {
		e.fail("closing the capture journal: %v", err)
	}
	if cs.Dropped > 0 {
		e.fail("capture journal dropped %d records: %s", cs.Dropped, cs.LastError)
	}

	answers := phase.tally.answers
	checked := checkOracle(e, answers, primary, 3, rng, func(key int) (capture.Digest, error) {
		m, _, err := db.Range(rangeQs[key], ts, thr, tsq.QueryOptions{Algorithm: tsq.SeqScan})
		return core.AnswerDigestRange(m), err
	})
	checked += checkOracle(e, answers, secondary, 1, rng, func(key int) (capture.Digest, error) {
		m, _, err := db.NearestNeighbors(nnQs[key-keySpace], ts, 10, tsq.QueryOptions{Algorithm: tsq.SeqScan})
		return core.AnswerDigestNN(m), err
	})

	e.record["data"] = fmt.Sprintf("%d random walks of length %d, CreateFile with BulkLoad and %d shards, closed and reopened with OpenFile, no buffer pool", count, seriesLength, shards)
	e.record["load"] = "1 closed-loop client; 9 of 10 ops ad-hoc RangeCtx Auto MV(10..25) corr 0.99 (primary), 1 of 10 ad-hoc NearestNeighbors k=10 (secondary); queries are stored walks plus Gaussian noise (sigma 100); capture journal on"
	e.record["buffer_pool_pages"] = 0
	e.record["file_bytes"] = created
	e.record["oracle_checked"] = checked
	readMetrics(e, phase)
	if e.trace {
		readLayers(e, phase)
		overheadAndRuntime(e, phase.tally.split, phase.mem, phase.tally.ops)
	}
	return nil
}
