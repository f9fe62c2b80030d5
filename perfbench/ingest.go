package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tsq"
	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/obs/capture"
	"tsq/internal/wal"
)

// The ingest workloads' open-loop rates, per second. The paced writer
// grows the database by the same number of series in every run. Its
// sends fall at seeded points independent of the reader's, so a read
// waits for an insert, fsync included, only when it arrives during
// one: a few reads in a hundred. The lock wait shows in
// tsq.lock_wait_ms. At 10 writes a second on the reader's grid, about
// one read in ten waited, and the read p95 followed the host's fsync
// latency, which swung by half between runs on a shared 2-CPU VM.
//
// The reader's query, the paper's Fig. 5 range query at correlation
// 0.96, takes about 11 ms, and its p95 is set by the queries with the
// most candidates, which the seed fixes. At 0.99 a read took about
// 3 ms, and its p95 was set by host noise: it spread past 0.4 of its
// median over ten seeds, against 0.05 over five at 0.96.
const (
	ingestReadRate  = 20
	ingestWriteRate = 5
)

// recoveryTail is how many inserts follow an explicit checkpoint before
// the files are copied, so every run recovers the same amount of
// write-ahead log (about 3 MiB, under the 4 MiB inline checkpoint).
const recoveryTail = 40

// openLoop calls fn(i, due) for the i-th operation due at start +
// i/rate, until the deadline, and sends late ones at once. With
// jitter, the i-th operation is due at a uniform random point of
// [i/rate, (i+1)/rate) instead. The writer uses it: on one grid with
// the reader, every fifth read was due at the same instant as a write,
// and whichever took the database lock first decided whether that read
// waited for the insert.
//
// openLoop sleeps until each operation is due or, with spin,
// busy-waits for it. The reader spins: a sleeping reader leaves its
// CPU idle between reads, and on a shared 2-CPU VM its reads then ran
// 8-19% slower at the median than a spinning reader's, in four pairs
// of runs on the same seeds. Spinning keeps one of GOMAXPROCS busy;
// the writer, the runtime and the program have the others.
func openLoop(spin bool, jitter *rand.Rand, start, deadline time.Time, rate int, fn func(i int, due time.Time)) {
	interval := time.Second / time.Duration(rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if jitter != nil {
			due = due.Add(time.Duration(jitter.Int63n(int64(interval))))
		}
		if !due.Before(deadline) {
			return
		}
		if spin {
			for time.Now().Before(due) {
				runtime.Gosched()
			}
		} else if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		fn(i, due)
	}
}

// walSnap is the registry's write-ahead-log counters and fsync latency
// buckets at one instant.
type walSnap struct {
	records, fsyncs, groups, checkpoints int64
	bounds, buckets                      []int64
}

func readWAL() walSnap {
	var w walSnap
	snap := tsq.Metrics().Snapshot()
	for _, c := range snap.Counters {
		switch c.Name {
		case "tsq_wal_records_total":
			w.records = c.Value
		case "tsq_wal_fsyncs_total":
			w.fsyncs = c.Value
		case "tsq_wal_group_commits_total":
			w.groups = c.Value
		case "tsq_wal_checkpoints_total":
			w.checkpoints = c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "tsq_wal_fsync_latency_ns" {
			w.bounds, w.buckets = h.Bounds, h.Counts
		}
	}
	return w
}

// bucketQuantile interpolates the q-quantile of the observations that
// fell into the histogram buckets between two snapshots.
func bucketQuantile(before, after walSnap, q float64) float64 {
	if len(after.buckets) == 0 {
		return 0
	}
	delta := make([]int64, len(after.buckets))
	var total int64
	for i := range delta {
		delta[i] = after.buckets[i]
		if i < len(before.buckets) {
			delta[i] -= before.buckets[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range delta {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		var lo, hi float64
		if i > 0 {
			lo = float64(after.bounds[i-1])
		}
		if i < len(after.bounds) {
			hi = float64(after.bounds[i])
		} else {
			hi = lo
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return float64(after.bounds[len(after.bounds)-1])
}

// writeTally collects the writer's results of one phase.
type writeTally struct {
	insert, delete []time.Duration
	checkpointing  []time.Duration // writes during which a checkpoint ran
	errs           int
	firstErr       error
}

// ingestState is the writer's bookkeeping.
type ingestState struct {
	deleteEvery int // every deleteEvery-th write is a Delete; 0 for none
	rng         *rand.Rand
	live        []int64 // inserted ids not yet deleted, oldest first
	inserted    int     // acknowledged inserts
	deleted     int     // acknowledged deletes
	ops         int
}

// write issues the writer's next operation: an insert of a fresh walk
// or, every deleteEvery-th write, a delete of the oldest series it
// inserted. The writer's schedule only paces it, so that every run
// grows the database alike; a write's latency is its call time, and a
// stall behind a reader or a checkpoint shows in the call it hits.
func (s *ingestState) write(db *tsq.DB, t *writeTally) {
	del := s.deleteEvery > 0 && s.ops%s.deleteEvery == s.deleteEvery-1 && len(s.live) > 0
	s.ops++
	var walk tsq.Series
	if !del {
		walk = datagen.RandomWalk(s.rng, seriesLength)
	}
	cp0 := wal.GlobalStats().Checkpoints
	t0 := time.Now()
	var err error
	var id int64
	if del {
		err = db.Delete(s.live[0])
	} else {
		id, err = db.Insert(fmt.Sprintf("w%d", s.inserted), walk)
	}
	d := time.Since(t0)
	if err != nil {
		if t.errs == 0 {
			t.firstErr = err
		}
		t.errs++
		return
	}
	if wal.GlobalStats().Checkpoints != cp0 {
		t.checkpointing = append(t.checkpointing, d)
	}
	if del {
		s.live = s.live[1:]
		s.deleted++
		t.delete = append(t.delete, d)
	} else {
		s.live = append(s.live, id)
		s.inserted++
		t.insert = append(t.insert, d)
	}
}

// ingestPhase is the measured phase of an ingest workload.
type ingestPhase struct {
	reads        *readTally
	late         []time.Duration // how late the reader sent each read
	writes       writeTally
	elapsed      time.Duration
	mem          memSample
	wal0, wal1   walSnap
	pagesWritten int64
}

// runIngestMixed is the write workload with deletes: three inserts to
// one delete. It is not listed in BENCHMARK.json; README.md, known
// defects, says why.
func runIngestMixed(e *env) error { return runIngest(e, 4) }

// runIngestAppend is the listed write workload: inserts only.
func runIngestAppend(e *env) error { return runIngest(e, 0) }

// runIngest runs an open-loop writer beside an open-loop reader on a
// file-backed database, then checks that a copy of the files with
// their pending write-ahead log recovers to the same state.
func runIngest(e *env, deleteEvery int) error {
	const base = 8000
	ss := datagen.RandomWalks(e.seed, base, seriesLength)
	ts := tsq.MovingAverages(seriesLength, 10, 25)
	thr := tsq.Correlation(0.96)

	repDir := func(rep int) string { return filepath.Join(e.workDir, fmt.Sprintf("ingest%d", rep)) }
	var dir string
	db, setup, err := timedSetups(e.setupReps(3), func(rep int) (*tsq.DB, error) {
		dir = repDir(rep)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "db")
		db, err := tsq.CreateFile(path, ss, nil, tsq.Options{})
		if err != nil {
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		return tsq.OpenFile(path)
	}, func(rep int) { os.RemoveAll(repDir(rep)) })
	if err != nil {
		return err
	}
	defer db.Close()
	e.e2e["setup_s"] = setup

	rng := rand.New(rand.NewSource(e.seed))
	readIDs := make([]int64, 1024)
	for i := range readIDs {
		readIDs[i] = rng.Int63n(base) // base series are never deleted
	}
	// Every read gets its own key: inserts may add matches, so two reads
	// of one id need not agree.
	reads := 0
	readOpAt := func(p int) readOp {
		id := readIDs[p]
		reads++
		return readOp{kind: primary, key: reads, call: func(ctx context.Context) (answer, error) {
			m, st, err := db.RangeByIDCtx(ctx, id, ts, thr, tsq.QueryOptions{})
			return answer{core.AnswerDigestRange(m), st, len(m)}, err
		}}
	}
	state := &ingestState{deleteEvery: deleteEvery, rng: rand.New(rand.NewSource(e.seed + 1))}

	runtime.GC()
	p := ingestPhase{reads: newReadTally(), wal0: readWAL()}
	m0, d0 := readMem(), db.DiskStats()
	start := time.Now()
	deadline := start.Add(e.dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(false, rand.New(rand.NewSource(e.seed+2)), start, deadline, ingestWriteRate, func(int, time.Time) {
			state.write(db, &p.writes)
		})
	}()
	openLoop(true, nil, start, deadline, ingestReadRate, func(i int, due time.Time) {
		p.late = append(p.late, time.Since(due))
		p.reads.do(readOpAt(i%len(readIDs)), e.trace, 1, due)
	})
	wg.Wait()
	p.elapsed = time.Since(start)
	p.mem = readMem().sub(m0)
	p.wal1 = readWAL()
	p.pagesWritten = db.DiskStats().Writes - d0.Writes

	e.attempted += int64(p.reads.ops + len(p.writes.insert) + len(p.writes.delete) + p.writes.errs)
	if p.reads.errs > 0 {
		e.fail("%d reads returned an error, the first: %v", p.reads.errs, p.reads.firstErr)
	}
	if p.writes.errs > 0 {
		e.fail("%d writes returned an error, the first: %v", p.writes.errs, p.writes.firstErr)
	}

	if err := db.Checkpoint(); err != nil {
		e.fail("checkpoint before the recovery tail: %v", err)
	}
	var tail writeTally
	state.deleteEvery = 0
	for i := 0; i < recoveryTail; i++ {
		state.write(db, &tail)
	}
	e.attempted += int64(recoveryTail + 1)
	if tail.errs > 0 {
		e.fail("%d recovery-tail inserts returned an error, the first: %v", tail.errs, tail.firstErr)
	}

	files, err := dirBytes(dir, "db")
	if err != nil {
		return err
	}
	live := base + state.inserted - state.deleted
	e.e2e["bytes_per_user_byte"] = ratio(float64(files), rawBytes(live))

	recovery, err := checkRecovery(e, db, dir, base+state.inserted, live, readIDs, ts, thr)
	if err != nil {
		return err
	}

	writes := float64(len(p.writes.insert) + len(p.writes.delete))
	done := float64(p.reads.ops - p.reads.errs)
	st := p.reads.stats
	e.e2e["primary_p50_ms"] = quantile(p.reads.lat[primary], 0.5)
	e.e2e["primary_p95_ms"] = quantile(p.reads.lat[primary], 0.95)
	e.e2e["secondary_p50_ms"] = 1000 * recovery
	e.e2e["ops_per_s"] = (done + writes) / p.elapsed.Seconds()
	e.e2e["disk_accesses_per_query"] = ratio(float64(st.DAAll+st.Candidates), done)

	e.record["data"] = fmt.Sprintf("%d base random walks of length %d, CreateFile with 1 shard (insertion-built), closed and reopened with OpenFile, no buffer pool", base, seriesLength)
	writer := "Insert of fresh walks only"
	if deleteEvery > 0 {
		writer = fmt.Sprintf("%d Insert of fresh walks : 1 Delete of its oldest insert", deleteEvery-1)
	}
	e.record["load"] = fmt.Sprintf("1 writer paced at %d/s at seeded points of each interval (%s) beside 1 open-loop reader at %d/s that busy-waits for each send (RangeByID MT-index MV(10..25) corr 0.96 on base ids; primary, timed from the scheduled send); then Checkpoint, %d inserts, and OpenFile of 5 copies of the files (secondary = median recovery)", ingestWriteRate, writer, ingestReadRate, recoveryTail)
	e.record["flush_policy"] = "fsync of the write-ahead log per acknowledged write, inline checkpoint when the log passes 4 MiB"
	e.record["buffer_pool_pages"] = 0
	e.record["file_bytes_end"] = files
	e.record["series_end"] = live
	e.record["acked_inserts"] = state.inserted
	e.record["acked_deletes"] = state.deleted
	e.record["primary_samples"] = len(p.reads.lat[primary])
	e.record["insert_samples"] = len(p.writes.insert)
	e.record["reader_late_p50_ms"] = quantile(p.late, 0.5)
	e.record["reader_late_p95_ms"] = quantile(p.late, 0.95)
	e.record["reader_late_max_ms"] = quantile(p.late, 1)
	e.record["recovery_s"] = recovery

	if e.trace {
		readLayers(e, readPhaseResult{tally: p.reads, elapsed: p.elapsed})
		e.layers["tsq.insert_p50_us"] = 1000 * quantile(p.writes.insert, 0.5)
		e.layers["tsq.insert_p95_us"] = 1000 * quantile(p.writes.insert, 0.95)
		e.layers["tsq.delete_p50_us"] = 1000 * quantile(p.writes.delete, 0.5)
		e.layers["tsq.writes_per_s"] = writes / p.elapsed.Seconds()
		e.layers["storage.pages_written_per_write"] = ratio(float64(p.pagesWritten), writes)
		e.layers["wal.fsync_p50_us"] = bucketQuantile(p.wal0, p.wal1, 0.5) / 1000
		e.layers["wal.fsyncs_per_write"] = ratio(float64(p.wal1.fsyncs-p.wal0.fsyncs), writes)
		e.layers["wal.group_commit_ratio"] = ratio(float64(p.wal1.groups-p.wal0.groups), float64(p.wal1.records-p.wal0.records))
		e.layers["wal.checkpoints_per_1k_writes"] = ratio(1000*float64(p.wal1.checkpoints-p.wal0.checkpoints), writes)
		e.layers["wal.checkpoint_write_ms"] = mean(p.writes.checkpointing)
		e.layers["wal.recovery_s"] = recovery
		e.layers["bench.reader_late_p95_ms"] = quantile(p.late, 0.95)
		overheadAndRuntime(e, p.reads.split, p.mem, p.reads.ops+int(writes))
	}
	return nil
}

// checkRecovery copies the quiesced database's files, pending
// write-ahead log included, times OpenFile on five fresh copies and
// checks the last one: it passes
// Verify, holds the same ids and live series as the running database,
// and answers a seeded sample of reads like it, and like the
// sequential-scan oracle. It returns the median open time in seconds.
func checkRecovery(e *env, db *tsq.DB, dir string, ids, live int, readIDs []int64, ts []tsq.Transform, thr tsq.Threshold) (float64, error) {
	const reps = 5
	var times []time.Duration
	var rec *tsq.DB
	for r := 0; r < reps; r++ {
		if rec != nil {
			if err := rec.Close(); err != nil {
				return 0, fmt.Errorf("closing recovered copy: %w", err)
			}
		}
		cp := filepath.Join(e.workDir, fmt.Sprintf("recover%d", r))
		if err := copyDir(dir, cp); err != nil {
			return 0, fmt.Errorf("copying database files: %w", err)
		}
		t0 := time.Now()
		d, err := tsq.OpenFile(filepath.Join(cp, "db"))
		times = append(times, time.Since(t0))
		if err != nil {
			e.attempted++
			e.fail("recovery: OpenFile on the copied files: %v", err)
			return 0, nil
		}
		rec = d
	}
	defer rec.Close()

	e.attempted++
	if err := rec.Verify(); err != nil {
		e.fail("recovery: Verify on the recovered copy: %v", err)
	}
	for _, d := range []*tsq.DB{db, rec} {
		e.attempted++
		n := 0
		for id := int64(0); id < int64(d.Len()); id++ {
			if d.Get(id) != nil {
				n++
			}
		}
		if d.Len() != ids || n != live {
			e.fail("recovery: %d ids and %d live series, want %d and %d", d.Len(), n, ids, live)
		}
	}
	rng := rand.New(rand.NewSource(e.seed + 3))
	for i := 0; i < 3; i++ {
		id := readIDs[rng.Intn(len(readIDs))]
		e.attempted++
		var ds [3]capture.Digest
		for j, q := range []struct {
			d   *tsq.DB
			alg tsq.Algorithm
		}{{db, tsq.MTIndex}, {rec, tsq.MTIndex}, {db, tsq.SeqScan}} {
			m, _, err := q.d.RangeByID(id, ts, thr, tsq.QueryOptions{Algorithm: q.alg})
			if err != nil {
				e.fail("recovery check read %d: %v", id, err)
			}
			ds[j] = core.AnswerDigestRange(m)
		}
		if ds[0] != ds[1] || ds[0] != ds[2] {
			e.fail("read %d: live %+v, recovered %+v, sequential scan %+v", id, ds[0], ds[1], ds[2])
		}
	}
	return medianSeconds(times), nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if !de.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, de.Name()), filepath.Join(dst, de.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
