package sweep

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/workload"
)

// TestInputKeyCoversInputs walks sim.Config's fields: changing a field
// that sim.NewInputs reads must change sim.Config.InputKey, the key the
// engine groups tasks on (and a shared
// Inputs must refuse the changed config), changing any other field must
// not. A field added to sim.Config without a classification here fails.
func TestInputKeyCoversInputs(t *testing.T) {
	other, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]func(*sim.Config){
		"Workload":       func(c *sim.Config) { c.Workload = other },
		"Scenario":       func(c *sim.Config) { c.Scenario = mapping.High },
		"FootprintPages": func(c *sim.Config) { c.FootprintPages *= 2 },
		"Accesses":       func(c *sim.Config) { c.Accesses++ },
		"WarmupAccesses": func(c *sim.Config) { c.WarmupAccesses = 7 },
		"Seed":           func(c *sim.Config) { c.Seed++ },
		"Pressure":       func(c *sim.Config) { c.Pressure = 0.4 },
	}
	others := map[string]func(*sim.Config){
		"Scheme":             func(c *sim.Config) { c.Scheme = mmu.RMM },
		"FixedDistance":      func(c *sim.Config) { c.FixedDistance = 64 },
		"HW":                 func(c *sim.Config) { c.HW = mmu.DefaultConfig(); c.HW.L2Entries = 2048 },
		"DetailedWalk":       func(c *sim.Config) { c.DetailedWalk = true },
		"MultiRegionAnchors": func(c *sim.Config) { c.MultiRegionAnchors = true },
		"CostModel":          func(c *sim.Config) { c.CostModel = core.CostCapacityAware },
		"SweepCost":          func(c *sim.Config) { c.SweepCost = osmem.DefaultSweepCost; c.SweepCost.AnchorNanos++ },
		"EpochInstructions":  func(c *sim.Config) { c.EpochInstructions = 12_345 },
		"Probe":              func(c *sim.Config) { c.Probe = func(sim.ProbeSample) {} },
		"Shards":             func(c *sim.Config) { c.Shards = 4 },
	}

	base := smallSpec(t).Jobs()[0]
	in, err := sim.NewInputs(base.Config)
	if err != nil {
		t.Fatal(err)
	}
	ct := reflect.TypeOf(sim.Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		mutateIn, isInput := inputs[name]
		mutateOther, isOther := others[name]
		switch {
		case isInput && isOther:
			t.Errorf("field %s is classified twice", name)
		case isInput:
			j := base
			mutateIn(&j.Config)
			if j.Config.InputKey() == base.Config.InputKey() {
				t.Errorf("changing input field %s did not change the input key", name)
			}
			if _, err := in.Run(j.Config); err == nil {
				t.Errorf("shared inputs ran a config with a different %s", name)
			}
		case isOther:
			j := base
			mutateOther(&j.Config)
			if j.Config.InputKey() != base.Config.InputKey() {
				t.Errorf("changing %s changed the input key; the inputs do not depend on it", name)
			}
		default:
			t.Errorf("sim.Config field %s is unclassified: add it to the input or the non-input fields", name)
		}
	}
	if len(inputs)+len(others) != ct.NumField() {
		t.Errorf("%d fields classified, sim.Config has %d", len(inputs)+len(others), ct.NumField())
	}

	// The defaulted form shares its zero form's inputs. (Churn acts on
	// the process and lives on the Job, outside the key.)
	if base.Config.WithDefaults().InputKey() != base.Config.InputKey() {
		t.Error("defaulting changed the input key")
	}
}

// sharedTracker records the engine's shared-input lifetimes.
type sharedTracker struct {
	mu      sync.Mutex
	builds  map[string]int
	live    int
	maxLive int
}

func trackInputs(e *Engine) *sharedTracker {
	tr := &sharedTracker{builds: make(map[string]int)}
	e.inputsLive = func(key string, delta int) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if delta > 0 {
			tr.builds[key]++
		}
		tr.live += delta
		tr.maxLive = max(tr.maxLive, tr.live)
	}
	return tr
}

// memStore is an in-memory Store.
type memStore struct {
	mu   sync.Mutex
	data map[string][]byte
}

func (s *memStore) Load(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.data[key]
	return d, ok
}

func (s *memStore) Save(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = data
	return nil
}

// alone runs one job by itself, unshared and uncached.
func alone(t *testing.T, j Job) (sim.Result, sim.ChurnStats) {
	t.Helper()
	res, churn, err := execute(j, nil)
	if err != nil {
		t.Fatalf("%v: %v", j, err)
	}
	return res, churn
}

// mixedBatch is a batch that exercises every planning path: a 2×2×8
// grid (four input keys of eight schemes), a static-ideal set on a key
// of its own, churn jobs sharing a grid key, an in-batch duplicate and
// a job that the store already holds. It returns the batch, the index
// of the stored job and the input keys that must be built once each.
func mixedBatch(t *testing.T) (jobs []Job, stored int, shared map[string]bool) {
	t.Helper()
	spec := smallSpec(t)
	spec.Schemes = mmu.All()
	jobs = spec.Jobs()

	ideal := spec.Base
	ideal.Scheme, ideal.Workload, ideal.Scenario, ideal.Seed = mmu.Anchor, spec.Workloads[1], mapping.High, 8
	cfgs, err := sim.StaticIdealConfigs(ideal)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cfgs {
		jobs = append(jobs, Job{Config: c})
	}
	for _, s := range []mmu.Scheme{mmu.THP, mmu.Anchor} {
		c := jobs[0].Config
		c.Scheme = s
		jobs = append(jobs, Job{Config: c, ChurnIntervalInstructions: 4_000, ChurnPages: 32})
	}
	jobs = append(jobs, jobs[3])
	stored = 9 // a grid job: its key's group keeps seven other misses
	shared = make(map[string]bool)
	for _, j := range jobs {
		shared[j.Config.InputKey()] = true
	}
	return jobs, stored, shared
}

// TestEngineSharedInputs runs a mixed batch through the engine at
// Parallelism 1 and 4: every result equals the job run alone, the cache
// statistics are what per-cell planning gives, each shared input key is
// built exactly once, and at most Parallelism+1 input sets are live.
func TestEngineSharedInputs(t *testing.T) {
	jobs, stored, shared := mixedBatch(t)
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		want[i].Res, want[i].Churn = alone(t, j)
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			store := &memStore{data: make(map[string][]byte)}
			res, churn := want[stored].Res, want[stored].Churn
			data, err := encodeEntry(cached{res: res, churn: churn})
			if err != nil {
				t.Fatal(err)
			}
			store.data[jobs[stored].Key()] = data

			e := New(Options{Parallelism: par, Store: store})
			tr := trackInputs(e)
			got, err := e.Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range jobs {
				if !reflect.DeepEqual(got[i].Res, want[i].Res) || got[i].Churn != want[i].Churn {
					t.Errorf("job %d (%v): engine result differs from the job run alone", i, jobs[i])
				}
			}
			wantStats := CacheStats{Jobs: len(jobs), Hits: 1, Misses: len(jobs) - 1, StoreHits: 1}
			if s := e.Stats(); s != wantStats {
				t.Errorf("stats = %+v, want %+v", s, wantStats)
			}
			for key := range shared {
				if n := tr.builds[key]; n != 1 {
					t.Errorf("input key %.12s built %d times, want 1", key, n)
				}
			}
			if len(tr.builds) != len(shared) {
				t.Errorf("%d input keys built, want %d", len(tr.builds), len(shared))
			}
			if tr.live != 0 {
				t.Errorf("%d input sets still live after the batch", tr.live)
			}
			if tr.maxLive > par+1 {
				t.Errorf("%d input sets live at once, want at most %d", tr.maxLive, par+1)
			}
		})
	}

	// Uncached, every job simulates — the duplicate too — and a lone job
	// (a key of its own) builds nothing.
	e := New(Options{Parallelism: 4, DisableCache: true})
	tr := trackInputs(e)
	lone := jobs[0]
	lone.Config.Seed = 99
	got, err := e.Run(context.Background(), append(jobs, lone))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(got[i].Res, want[i].Res) || got[i].Churn != want[i].Churn {
			t.Errorf("uncached job %d (%v) differs from the job run alone", i, jobs[i])
		}
	}
	if n := tr.builds[lone.Config.InputKey()]; n != 0 {
		t.Errorf("a lone job built shared inputs %d times", n)
	}
}

// groupJobs is one input key's group: four schemes on one input.
func groupJobs(t *testing.T) []Job {
	t.Helper()
	spec := smallSpec(t)
	spec.Workloads = spec.Workloads[:1]
	spec.Scenarios = spec.Scenarios[:1]
	spec.Schemes = []mmu.Scheme{mmu.Base, mmu.THP, mmu.RMM, mmu.Anchor}
	return spec.Jobs()
}

// TestSharedInputsIsolation checks that a group shares only its inputs:
// a panicking member fails only itself, a transient fault retries on
// the same inputs, and progress still fires once per job.
func TestSharedInputsIsolation(t *testing.T) {
	jobs := groupJobs(t)
	want := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		want[i], _ = alone(t, j)
	}

	t.Run("panic", func(t *testing.T) {
		e := New(Options{Parallelism: 2, DisableCache: true})
		tr := trackInputs(e)
		e.runJob = func(j Job, g *inputGroup) (sim.Result, sim.ChurnStats, error) {
			res, churn, err := execute(j, g)
			if j.Config.Scheme == mmu.THP {
				panic("member crashed after its drive")
			}
			return res, churn, err
		}
		got, err := e.Run(context.Background(), jobs)
		if err == nil {
			t.Fatal("a panicking member did not fail the sweep")
		}
		for i, r := range got {
			if jobs[i].Config.Scheme == mmu.THP {
				if r.Err == nil || !strings.Contains(r.Err.Error(), "panic") {
					t.Errorf("panicking member: err = %v", r.Err)
				}
				continue
			}
			if r.Err != nil || !reflect.DeepEqual(r.Res, want[i]) {
				t.Errorf("member %v hurt by a sibling's panic: err %v", jobs[i], r.Err)
			}
		}
		if len(tr.builds) != 1 || tr.live != 0 {
			t.Errorf("builds %v, live %d after the batch", tr.builds, tr.live)
		}
	})

	t.Run("transient-retry", func(t *testing.T) {
		var delays []time.Duration
		var mu sync.Mutex
		e := New(Options{Parallelism: 2, DisableCache: true, Retry: RetryPolicy{MaxAttempts: 3},
			Sleep: instantSleep(&delays, &mu)})
		tr := trackInputs(e)
		var failed sync.Once
		e.runJob = func(j Job, g *inputGroup) (sim.Result, sim.ChurnStats, error) {
			if j.Config.Scheme == mmu.RMM {
				fail := false
				failed.Do(func() { fail = true })
				if fail {
					g.inputs(j.Config) // the failed attempt has built or used the inputs
					return sim.Result{}, sim.ChurnStats{}, ErrInjectedTransient
				}
			}
			return execute(j, g)
		}
		got, err := e.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if !reflect.DeepEqual(r.Res, want[i]) {
				t.Errorf("member %v differs after a sibling's retry", jobs[i])
			}
		}
		if s := e.Stats(); s.Retries != 1 {
			t.Errorf("retries = %d, want 1", s.Retries)
		}
		for key, n := range tr.builds {
			if n != 1 {
				t.Errorf("input key %.12s built %d times: the retry did not reuse the inputs", key, n)
			}
		}
		if len(tr.builds) != 1 || tr.live != 0 {
			t.Errorf("builds %v, live %d after the batch", tr.builds, tr.live)
		}
	})

	t.Run("progress", func(t *testing.T) {
		var mu sync.Mutex
		seen := make(map[string]int)
		var last int
		e := New(Options{Parallelism: 2, Progress: func(done, total int, j Job) {
			mu.Lock()
			defer mu.Unlock()
			seen[j.Key()]++
			if total != len(jobs) || done != last+1 {
				t.Errorf("progress %d/%d after %d", done, total, last)
			}
			last = done
		}})
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		if last != len(jobs) || len(seen) != len(jobs) {
			t.Errorf("progress ended at %d over %d jobs, want %d", last, len(seen), len(jobs))
		}
		for key, n := range seen {
			if n != 1 {
				t.Errorf("progress fired %d times for job %.12s", n, key)
			}
		}
	})
}
