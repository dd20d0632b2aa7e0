package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hybridtlb/internal/sim"
)

// ProgressFunc observes sweep completion: done jobs out of total in the
// current batch, and the job that just finished. Calls are serialized by
// the engine, so implementations need no locking of their own; they must
// not block for long, since they run on the worker hot path.
type ProgressFunc func(done, total int, job Job)

// Options configures an Engine.
type Options struct {
	// Parallelism bounds concurrently running simulations
	// (0: runtime.GOMAXPROCS(0)).
	Parallelism int
	// Progress, when non-nil, is invoked as jobs complete.
	Progress ProgressFunc
	// DisableCache turns off result memoization; every job is simulated,
	// including duplicates within one batch.
	DisableCache bool
	// Store, when non-nil, is a durable second cache level: memory
	// misses probe it before simulating, and fresh results are written
	// through to it. A Store miss or damaged entry falls back to
	// simulation.
	Store Store
	// Retry re-runs failed cells per its policy (zero value: one
	// attempt, no retries).
	Retry RetryPolicy
	// Faults, when non-nil, injects seeded chaos into every attempt.
	Faults *FaultInjector
	// Sleep replaces the backoff sleeper (nil: a real timer). Tests
	// inject one to make retry delays instantaneous.
	Sleep Sleeper
	// Probe, when non-nil, builds a per-cell epoch observer: each job
	// whose Config.Probe is nil gets Probe(job) attached before it is
	// simulated. Probes fire only for cells actually simulated — results
	// served from the in-memory cache or the durable Store replay no
	// epochs — and a retried cell re-fires its epochs on every attempt.
	// Probe funcs never affect results or cache keys.
	Probe func(Job) sim.Probe
}

// CacheStats counts the engine's cache traffic across its lifetime.
type CacheStats struct {
	// Jobs is the total number of jobs submitted.
	Jobs int
	// Hits counts jobs served without a new simulation: either from the
	// cache of an earlier batch or coalesced with an identical job in
	// the same batch.
	Hits int
	// Misses counts jobs that missed the in-memory cache. A miss may
	// still be served from the durable Store (counted in StoreHits)
	// instead of simulating.
	Misses int
	// StoreHits counts memory misses resolved from the durable Store.
	StoreHits int
	// StoreErrors counts failed write-throughs to the Store; the result
	// is still returned and cached in memory.
	StoreErrors int
	// Retries counts re-run attempts after per-cell failures.
	Retries int
}

// cached is one memoized job outcome. Failed jobs are never cached.
type cached struct {
	res   sim.Result
	churn sim.ChurnStats
}

// Engine executes sweep jobs on a bounded worker pool with a
// content-addressed result cache. An Engine is safe for concurrent use
// and is typically shared across experiments so common cells (the base
// scheme, static-ideal probes) are computed once per process.
//
// Cached sim.Result values are shared between the jobs they serve;
// callers must treat results (including the AnchorActions map) as
// read-only.
type Engine struct {
	parallelism  int
	progress     ProgressFunc
	disableCache bool
	store        Store
	retry        RetryPolicy
	faults       *FaultInjector
	sleep        Sleeper
	probe        func(Job) sim.Probe

	// runJob is the execution function; tests substitute it to inject
	// blocking and completion-order inversions (probabilistic faults
	// belong in Options.Faults). The group is the job's shared-input
	// group, nil when no other task of the batch shares its input key.
	runJob func(Job, *inputGroup) (sim.Result, sim.ChurnStats, error)
	// inputsLive, when non-nil, observes shared-input lifetimes: +1 when
	// a group builds its key's inputs, -1 when it releases them. Tests
	// count builds and the live high-water mark with it.
	inputsLive func(inputKey string, delta int)

	mu    sync.Mutex
	cache map[string]cached
	stats CacheStats
}

// New creates an engine.
func New(opts Options) *Engine {
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = waitSleep
	}
	return &Engine{
		parallelism:  p,
		progress:     opts.Progress,
		disableCache: opts.DisableCache,
		store:        opts.Store,
		retry:        opts.Retry.withDefaults(),
		faults:       opts.Faults,
		sleep:        sleep,
		probe:        opts.Probe,
		runJob:       execute,
		cache:        make(map[string]cached),
	}
}

// Stats returns the engine's cumulative cache statistics.
func (e *Engine) Stats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// execute runs one job, on its group's shared inputs when it has them.
func execute(j Job, g *inputGroup) (res sim.Result, churn sim.ChurnStats, err error) {
	in := g.inputs(j.Config)
	if j.ChurnIntervalInstructions != 0 || j.ChurnPages != 0 {
		cc := sim.ChurnConfig{
			Config:                    j.Config,
			ChurnIntervalInstructions: j.ChurnIntervalInstructions,
			ChurnPages:                j.ChurnPages,
		}
		if in != nil {
			return in.RunWithChurn(cc)
		}
		return sim.RunWithChurn(cc)
	}
	if in != nil {
		res, err = in.Run(j.Config)
	} else {
		res, err = sim.Run(j.Config)
	}
	return res, sim.ChurnStats{}, err
}

// safeRun executes one attempt of one job, converting a panic anywhere
// in the simulator (or injected by the fault hook) into a per-job error
// naming the job, so one failing cell cannot kill the sweep. Panics are
// marked Permanent: re-running a crashing cell cannot help.
func (e *Engine) safeRun(ctx context.Context, j Job, g *inputGroup, key string, attempt int) (res sim.Result, churn sim.ChurnStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = Permanent(fmt.Errorf("job %s: panic: %v", j, p))
		}
	}()
	if f := e.faults.plan(key, attempt); f.delay > 0 || f.err != nil || f.panicMsg != "" {
		if f.delay > 0 {
			e.sleep(ctx, f.delay)
		}
		if f.panicMsg != "" {
			panic(f.panicMsg)
		}
		if f.err != nil {
			return res, churn, fmt.Errorf("job %s: %w", j, f.err)
		}
	}
	res, churn, err = e.runJob(j, g)
	if err != nil {
		err = fmt.Errorf("job %s: %w", j, err)
	}
	return res, churn, err
}

// runTask resolves one unique cell: durable-store probe first, then
// simulation with the retry policy. fromStore reports that the result
// was loaded rather than computed (so it must not be written back).
func (e *Engine) runTask(ctx context.Context, t *task) (res sim.Result, churn sim.ChurnStats, fromStore bool, err error) {
	if e.store != nil && !e.disableCache {
		if data, ok := e.store.Load(t.key); ok {
			if c, ok := decodeEntry(data); ok {
				e.mu.Lock()
				e.stats.StoreHits++
				e.mu.Unlock()
				return c.res, c.churn, true, nil
			}
		}
	}
	job := t.job
	if e.probe != nil && job.Config.Probe == nil {
		job.Config.Probe = e.probe(job)
	}
	for attempt := 1; ; attempt++ {
		res, churn, err = e.safeRun(ctx, job, t.group, t.key, attempt)
		if err == nil || attempt >= e.retry.MaxAttempts || IsPermanent(err) {
			return res, churn, false, err
		}
		e.mu.Lock()
		e.stats.Retries++
		e.mu.Unlock()
		if !e.sleep(ctx, e.retry.delay(t.key, attempt)) {
			return res, churn, false, ctx.Err()
		}
	}
}

// task is one unique simulation of a batch, fanned out to every job
// position that shares its key.
type task struct {
	job       Job
	key       string
	positions []int
	// group shares the task's inputs with the batch's other tasks of the
	// same input key; nil when the task is its key's only one.
	group *inputGroup
}

// Run executes the jobs and returns their results in input order,
// regardless of completion order. Jobs whose key is already cached (or
// duplicated within the batch) are served without re-simulation.
//
// The returned error is nil only if every job succeeded: it is the
// context's error after cancellation, or an aggregate naming the failed
// jobs otherwise. Per-job outcomes — including per-job errors — are
// always available in the result slice.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	return e.RunWithProgress(ctx, jobs, e.progress)
}

// RunWithProgress is Run with a per-call progress observer replacing the
// engine-wide one — the hook a server needs when one long-lived engine
// executes many independently tracked sweeps. A nil progress disables
// reporting for this call only.
func (e *Engine) RunWithProgress(ctx context.Context, jobs []Job, progress ProgressFunc) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	total := len(jobs)
	if total == 0 {
		return results, nil
	}

	// Progress calls are serialized; done counts job positions, so it
	// reaches total even when many positions share one simulation.
	var progressMu sync.Mutex
	var done int
	report := func(positions ...int) {
		if progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		for _, i := range positions {
			done++
			progress(done, total, results[i].Job)
		}
	}

	// Plan sequentially: resolve cache hits, coalesce duplicate keys.
	// Planning under the lock keeps hit/miss counting deterministic.
	var tasks []*task
	var hits []int
	e.mu.Lock()
	e.stats.Jobs += total
	byKey := make(map[string]*task)
	for i, j := range jobs {
		j.Config = j.Config.WithDefaults()
		results[i].Job = j
		// The key is computed even with caching disabled: retry jitter
		// and fault injection are both keyed by it.
		key := j.Key()
		if e.disableCache {
			e.stats.Misses++
			tasks = append(tasks, &task{job: j, key: key, positions: []int{i}})
			continue
		}
		if c, ok := e.cache[key]; ok {
			e.stats.Hits++
			results[i].Res, results[i].Churn, results[i].Cached = c.res, c.churn, true
			hits = append(hits, i)
			continue
		}
		if t, ok := byKey[key]; ok {
			e.stats.Hits++
			results[i].Cached = true
			t.positions = append(t.positions, i)
			continue
		}
		e.stats.Misses++
		t := &task{job: j, key: key, positions: []int{i}}
		byKey[key] = t
		tasks = append(tasks, t)
	}
	e.mu.Unlock()
	report(hits...)
	tasks = e.groupTasks(tasks)

	workers := e.parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(tasks) {
					return
				}
				t := tasks[n]
				if err := ctx.Err(); err != nil {
					// Drain the queue, marking unstarted jobs cancelled.
					t.group.finish()
					for _, i := range t.positions {
						results[i].Err = err
					}
					report(t.positions...)
					continue
				}
				res, churn, fromStore, err := e.runTask(ctx, t)
				t.group.finish()
				if err == nil && !e.disableCache {
					e.mu.Lock()
					e.cache[t.key] = cached{res: res, churn: churn}
					e.mu.Unlock()
					if !fromStore && e.store != nil {
						e.writeThrough(t.key, cached{res: res, churn: churn})
					}
				}
				for _, i := range t.positions {
					results[i].Res, results[i].Churn, results[i].Err = res, churn, err
					if fromStore {
						results[i].Cached = true
					}
				}
				report(t.positions...)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, failures(results)
}

// writeThrough persists one fresh result to the durable store,
// degrading to memory-only (with the error counted) on failure — a
// full disk must not fail the sweep.
func (e *Engine) writeThrough(key string, c cached) {
	data, err := encodeEntry(c)
	if err == nil {
		err = e.store.Save(key, data)
	}
	if err != nil {
		e.mu.Lock()
		e.stats.StoreErrors++
		e.mu.Unlock()
	}
}

// failures aggregates per-job errors into one error naming the failed
// jobs (nil when everything succeeded). Every distinct error message is
// included via errors.Join — coalesced duplicates (positions sharing a
// failed cell) are reported once — so a multi-cell failure is fully
// diagnosable from the returned error alone.
func failures(results []Result) error {
	var errs []error
	seen := make(map[string]bool)
	n := 0
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		n++
		if msg := r.Err.Error(); !seen[msg] {
			seen[msg] = true
			errs = append(errs, r.Err)
		}
	}
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fmt.Errorf("sweep: %w", errs[0])
	}
	return fmt.Errorf("sweep: %d of %d jobs failed: %w", n, len(results), errors.Join(errs...))
}

// Results unwraps a result slice into the bare simulation results,
// dropping per-job metadata. It must only be called on an error-free
// sweep.
func Results(rs []Result) []sim.Result {
	out := make([]sim.Result, len(rs))
	for i, r := range rs {
		out[i] = r.Res
	}
	return out
}
