package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridtlb/internal/mmu"
	"hybridtlb/internal/persist"
	"hybridtlb/internal/sim"
)

// fakeSim is a deterministic stand-in for the simulator: the result is
// a pure function of the job, so byte-identity across runs is checkable
// without paying for real simulations.
func fakeSim(j Job, _ *inputGroup) (sim.Result, sim.ChurnStats, error) {
	return sim.Result{
		Scheme:       j.Config.Scheme,
		Instructions: uint64(j.Config.Seed) * 100,
		Stats:        mmu.Stats{Accesses: uint64(j.Config.Seed), Walks: uint64(j.Config.FootprintPages)},
	}, sim.ChurnStats{Operations: uint64(j.Config.Seed)}, nil
}

// instantSleep skips backoff delays while recording them.
func instantSleep(delays *[]time.Duration, mu *sync.Mutex) Sleeper {
	return func(ctx context.Context, d time.Duration) bool {
		mu.Lock()
		*delays = append(*delays, d)
		mu.Unlock()
		return ctx.Err() == nil
	}
}

func seedJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Config: sim.Config{FootprintPages: 64, Accesses: 100, Seed: int64(i + 1)}}
	}
	return jobs
}

// A second engine over the same store directory must serve every cell
// from disk without re-simulating, and the results must be identical.
func TestStoreWriteThroughAndReload(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := seedJobs(4)

	var sims atomic.Int64
	counted := func(j Job, _ *inputGroup) (sim.Result, sim.ChurnStats, error) {
		sims.Add(1)
		return fakeSim(j, nil)
	}

	e1 := New(Options{Parallelism: 2, Store: store})
	e1.runJob = counted
	first, err := e1.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 4 {
		t.Fatalf("first run simulated %d cells, want 4", got)
	}
	if st := store.Stats(); st.Writes != 4 {
		t.Fatalf("store stats = %+v, want 4 writes", st)
	}

	store2, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Options{Parallelism: 2, Store: store2})
	e2.runJob = counted
	second, err := e2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 4 {
		t.Fatalf("second run re-simulated (%d total sims, want still 4)", got)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Res, second[i].Res) || !reflect.DeepEqual(first[i].Churn, second[i].Churn) {
			t.Fatalf("cell %d differs after store reload:\n first %+v\nsecond %+v", i, first[i], second[i])
		}
		if !second[i].Cached {
			t.Errorf("cell %d not marked cached on store hit", i)
		}
	}
	if st := e2.Stats(); st.StoreHits != 4 {
		t.Fatalf("engine stats = %+v, want 4 store hits", st)
	}
}

// An undecodable store entry must degrade to re-simulation.
type garbageStore struct{ saves atomic.Int64 }

func (g *garbageStore) Load(key string) ([]byte, bool)  { return []byte("not json"), true }
func (g *garbageStore) Save(key string, d []byte) error { g.saves.Add(1); return nil }

func TestStoreGarbageFallsBackToSimulation(t *testing.T) {
	gs := &garbageStore{}
	e := New(Options{Parallelism: 1, Store: gs})
	e.runJob = fakeSim
	results, err := e.Run(context.Background(), seedJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Cached {
			t.Fatalf("cell %d = %+v, want fresh simulation", i, r)
		}
	}
	if st := e.Stats(); st.StoreHits != 0 {
		t.Fatalf("stats = %+v, want 0 store hits for garbage entries", st)
	}
	if gs.saves.Load() != 2 {
		t.Fatalf("saves = %d, want write-through of both fresh results", gs.saves.Load())
	}
}

// A failing store write must not fail the sweep, only count.
type failingStore struct{}

func (failingStore) Load(key string) ([]byte, bool)  { return nil, false }
func (failingStore) Save(key string, d []byte) error { return errors.New("disk full") }

func TestStoreWriteErrorDegrades(t *testing.T) {
	e := New(Options{Parallelism: 1, Store: failingStore{}})
	e.runJob = fakeSim
	if _, err := e.Run(context.Background(), seedJobs(3)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.StoreErrors != 3 {
		t.Fatalf("stats = %+v, want 3 store errors", st)
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	var mu sync.Mutex
	var delays []time.Duration
	attempts := make(map[string]int)
	e := New(Options{
		Parallelism: 2,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Seed: 42},
		Sleep:       instantSleep(&delays, &mu),
	})
	e.runJob = func(j Job, _ *inputGroup) (sim.Result, sim.ChurnStats, error) {
		mu.Lock()
		attempts[j.String()]++
		n := attempts[j.String()]
		mu.Unlock()
		if n < 3 {
			return sim.Result{}, sim.ChurnStats{}, errors.New("transient blip")
		}
		return fakeSim(j, nil)
	}
	results, err := e.Run(context.Background(), seedJobs(2))
	if err != nil {
		t.Fatalf("sweep failed despite retries: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d error after retries: %v", i, r.Err)
		}
	}
	if st := e.Stats(); st.Retries != 4 {
		t.Fatalf("stats = %+v, want 4 retries (2 per cell)", st)
	}
	if len(delays) != 4 {
		t.Fatalf("sleeper called %d times, want 4", len(delays))
	}
	for _, d := range delays {
		// Base 10ms doubled at most once, jitter in [0.5, 1.5).
		if d < 5*time.Millisecond || d >= 30*time.Millisecond {
			t.Errorf("backoff %v outside jittered bounds", d)
		}
	}
}

// Backoff delays are a pure function of (seed, key, attempt): two
// policies agree exactly, independent of scheduling.
func TestRetryJitterDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 7}
	q := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 7}
	key := seedJobs(1)[0].Key()
	for attempt := 1; attempt <= 4; attempt++ {
		if p.delay(key, attempt) != q.delay(key, attempt) {
			t.Fatalf("attempt %d: jitter differs for identical seeds", attempt)
		}
	}
	r := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 8}
	same := 0
	for attempt := 1; attempt <= 4; attempt++ {
		if p.delay(key, attempt) == r.delay(key, attempt) {
			same++
		}
	}
	if same == 4 {
		t.Fatal("different seeds produced identical jitter everywhere")
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	var mu sync.Mutex
	var delays []time.Duration
	var calls atomic.Int64
	e := New(Options{
		Parallelism: 1,
		Retry:       RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond},
		Sleep:       instantSleep(&delays, &mu),
	})
	e.runJob = func(j Job, _ *inputGroup) (sim.Result, sim.ChurnStats, error) {
		calls.Add(1)
		return sim.Result{}, sim.ChurnStats{}, Permanent(errors.New("bad config"))
	}
	results, err := e.Run(context.Background(), seedJobs(1))
	if err == nil {
		t.Fatal("want error for permanently failing cell")
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent error ran %d attempts, want 1", calls.Load())
	}
	if !IsPermanent(results[0].Err) {
		t.Fatalf("cell error %v lost its Permanent mark", results[0].Err)
	}
}

func TestPanicNotRetried(t *testing.T) {
	var calls atomic.Int64
	e := New(Options{Parallelism: 1, Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Sleep: func(ctx context.Context, d time.Duration) bool { return true }})
	e.runJob = func(j Job, _ *inputGroup) (sim.Result, sim.ChurnStats, error) {
		calls.Add(1)
		panic("boom")
	}
	if _, err := e.Run(context.Background(), seedJobs(1)); err == nil {
		t.Fatal("want error from panicking cell")
	}
	if calls.Load() != 1 {
		t.Fatalf("panicking cell ran %d attempts, want 1 (panics are permanent)", calls.Load())
	}
}

// Failed cells are never written to the store; only the retried
// success lands there.
func TestRetryOnlyRerunsFailedCells(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var delays []time.Duration
	failedOnce := false
	e := New(Options{
		Parallelism: 1, // serialize so "first cell fails once" is well-defined
		Store:       store,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Sleep:       instantSleep(&delays, &mu),
	})
	var sims atomic.Int64
	e.runJob = func(j Job, _ *inputGroup) (sim.Result, sim.ChurnStats, error) {
		sims.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if j.Config.Seed == 1 && !failedOnce {
			failedOnce = true
			return sim.Result{}, sim.ChurnStats{}, errors.New("flake")
		}
		return fakeSim(j, nil)
	}
	if _, err := e.Run(context.Background(), seedJobs(3)); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 4 {
		t.Fatalf("simulated %d attempts, want 4 (3 cells + 1 retry)", got)
	}
	if st := store.Stats(); st.Writes != 3 {
		t.Fatalf("store stats = %+v, want exactly 3 writes", st)
	}
}

// With a fixed seed, a chaotic run (transient faults + retries) must
// converge to results identical to a fault-free run.
func TestFaultInjectionConvergesToCleanResults(t *testing.T) {
	jobs := seedJobs(8)

	clean := New(Options{Parallelism: 4})
	clean.runJob = fakeSim
	want, err := clean.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var delays []time.Duration
	chaotic := New(Options{
		Parallelism: 4,
		Retry:       RetryPolicy{MaxAttempts: 8, BaseDelay: time.Microsecond, Seed: 3},
		Faults:      &FaultInjector{Seed: 11, TransientRate: 0.4},
		Sleep:       instantSleep(&delays, &mu),
	})
	chaotic.runJob = fakeSim
	got, err := chaotic.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("chaotic run did not converge: %v", err)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].Res, got[i].Res) {
			t.Fatalf("cell %d: chaotic result differs from clean run", i)
		}
	}
	if st := chaotic.Stats(); st.Retries == 0 {
		t.Fatal("fault injector at 40% produced no retries — injection not reaching cells")
	}
}

// The injector's decisions are a pure function of (seed, key, attempt).
func TestFaultInjectorDeterministic(t *testing.T) {
	a := &FaultInjector{Seed: 5, TransientRate: 0.3, PermanentRate: 0.05, PanicRate: 0.05, Delay: time.Second}
	b := &FaultInjector{Seed: 5, TransientRate: 0.3, PermanentRate: 0.05, PanicRate: 0.05, Delay: time.Second}
	class := func(f fault) string {
		switch {
		case f.panicMsg != "":
			return "panic"
		case errors.Is(f.err, ErrInjectedPermanent):
			return "permanent"
		case errors.Is(f.err, ErrInjectedTransient):
			return "transient"
		default:
			return "none"
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%064d", i)
		for attempt := 1; attempt <= 3; attempt++ {
			fa, fb := a.plan(key, attempt), b.plan(key, attempt)
			if fa.delay != fb.delay || class(fa) != class(fb) {
				t.Fatalf("plan(%s, %d) diverged between identical injectors", key, attempt)
			}
		}
	}
	var nilInj *FaultInjector
	if f := nilInj.plan("k", 1); f.err != nil || f.delay != 0 || f.panicMsg != "" {
		t.Fatal("nil injector injected something")
	}
}

// Multi-cell failures report every distinct error, not just the first.
func TestFailuresJoinsDistinctErrors(t *testing.T) {
	errA, errB := errors.New("first failure"), errors.New("second failure")
	results := []Result{
		{Err: fmt.Errorf("job a: %w", errA)},
		{},
		{Err: fmt.Errorf("job b: %w", errB)},
		{Err: fmt.Errorf("job a: %w", errA)}, // duplicate message reported once
	}
	err := failures(results)
	if err == nil {
		t.Fatal("want aggregate error")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("aggregate %v does not wrap both distinct errors", err)
	}
	msg := err.Error()
	if want := "3 of 4 jobs failed"; !strings.Contains(msg, want) {
		t.Fatalf("aggregate %q missing %q", msg, want)
	}
	if n := strings.Count(msg, "first failure"); n != 1 {
		t.Fatalf("duplicate error message appears %d times, want 1:\n%s", n, msg)
	}
}
