package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hybridtlb"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/sweep"
	"hybridtlb/internal/workload"
)

// simWork describes a simulator workload: the cells one unit of work
// runs, how the unit runs them untraced, the set-up it times, and the
// serial reference its results are checked against.
type simWork struct {
	cells []cell
	// runUnit runs every cell once through the program's own entry
	// point and returns the results in cell order.
	runUnit func(cells []cell) ([]counts, error)
	// unitCells, when set, returns the cells measured unit k runs, so
	// units after the first can run other inputs; unit 0 runs cells.
	unitCells func(k int) []cell
	// setupCells, when set, returns the systems set-up pass p builds.
	setupCells func(p int) []cell
	// cellLatencies, when set, returns the host latency of every cell
	// the measured units ran; the simulate latency is then taken per
	// cell instead of per unit.
	cellLatencies func() []float64
	// setups are the (benchmark, scenario, pressure) systems one set-up
	// pass builds through the public set-up calls.
	setups []cell
	// reference re-runs cells serially through another entry point; the
	// results must equal the unit's.
	reference func(c cell) (counts, error)
	// sample picks the cells the reference re-runs.
	sample []int
	// panel lists extra cells the traced run adds for schemes the
	// workload does not run.
	panel []cell
	// decodeCell's access stream is what the traced run decodes in both
	// trace formats; replayFile, when set, is used instead.
	decodeCell cell
	replayFile string
	// shardCell, when set, is run by the traced run with and without
	// shard parallelism.
	shardCell *cell
}

// Set-up is timed in passes until both minimums are met; the median
// pass is reported.
const (
	setupMinReps = 5
	setupMinTime = time.Second
	setupMaxReps = 50
)

// timeSetup runs set-up passes, each timing itself, and returns the
// median pass in seconds. Each pass starts from a collected heap, so a
// collection owed by earlier work does not land in it.
func (r *run) timeSetup(pass func() (time.Duration, error)) (float64, error) {
	var passes []float64
	var total time.Duration
	for len(passes) < setupMinReps || (total < setupMinTime && len(passes) < setupMaxReps) {
		runtime.GC()
		d, err := pass()
		if !r.op(err) {
			return 0, err
		}
		total += d
		passes = append(passes, d.Seconds())
	}
	return median(passes), nil
}

// runSim measures a simulator workload untraced, or rebuilds it traced.
// The sweep latency is one unit's: a whole cold sweep, or the one long
// replay. The simulate latency is one cell's where the entry point
// exposes cell boundaries, and otherwise the unit's, since a unit is
// then what one call asks for.
func (r *run) runSim(w simWork) error {
	if r.traced {
		return r.tracedSim(w)
	}
	// Set-up: the public calls a user makes before the first
	// translation.
	pass := 0
	setup, err := r.timeSetup(func() (time.Duration, error) {
		setups := w.setups
		if w.setupCells != nil {
			setups = w.setupCells(pass)
		}
		pass++
		start := time.Now()
		for _, c := range setups {
			if err := publicSetup(c); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)

	// Measured phase: whole units until the run's time is spent. The
	// workloads give units after the first other seeds' inputs, so a
	// run's figures average several draws of the mappings rather than
	// resting on one.
	var walls, rates, cellRates []float64
	var first []counts
	var total time.Duration
	for k := 0; total < time.Duration(r.seconds*float64(time.Second)) || k == 0; k++ {
		cells := w.cells
		if w.unitCells != nil {
			cells = w.unitCells(k)
		}
		runtime.GC()
		start := time.Now()
		got, err := w.runUnit(cells)
		d := time.Since(start)
		if !r.op(err) {
			return err
		}
		total += d
		walls = append(walls, ms(d))
		var accesses uint64
		for i, c := range cells {
			r.checkCell(c, got[i])
			accesses += c.simulated()
		}
		rates = append(rates, float64(accesses)/d.Seconds()/1e6)
		cellRates = append(cellRates, float64(len(cells))/d.Seconds())
		if first == nil {
			first = got
		}
	}
	// Rates are medians over units, so a burst of load from outside
	// the run moves them less than a total over the run would.
	r.set("sim_maccess_per_s", "Maccess/s", median(rates))
	r.set("capacity_rps", "1/s", median(cellRates))
	r.set("sweep_p50_ms", "ms", percentile(walls, 50))
	r.set("sweep_p90_ms", "ms", percentile(walls, 90))
	lat := walls
	if w.cellLatencies != nil {
		lat = w.cellLatencies()
	}
	r.set("sim_p50_ms", "ms", percentile(lat, 50))
	r.set("sim_p99_ms", "ms", percentile(lat, 99))
	r.set("peak_rss_mib", "MiB", peakRSSMiB("self"))

	// Serial reference: each sampled cell again through the other entry
	// point.
	for _, i := range w.sample {
		c := w.cells[i]
		want, err := w.reference(c)
		if r.op(err) {
			r.check(want == first[i], "%v: serial reference %+v, workload run %+v", c, want, first[i])
		}
	}
	return nil
}

// unitSeedStep separates derived seeds: repetition k of a run with
// seed s uses seed s + k*unitSeedStep.
const unitSeedStep = 7919

func derivedSeed(seed int64, k int) int64 { return seed + int64(k)*unitSeedStep }

// reseeded returns, for repetition k, the cells under derived seed k.
func reseeded(cells []cell, seed int64) func(k int) []cell {
	return func(k int) []cell {
		out := append([]cell(nil), cells...)
		for i := range out {
			out[i].seed = derivedSeed(seed, k)
		}
		return out
	}
}

// checkCell holds one result to the invariant every cell keeps: the
// outcome counters sum to the accesses asked for.
func (r *run) checkCell(c cell, k counts) {
	r.check(k.sums(c.accesses), "%v: outcome counters %+v do not sum to %d accesses", c, k, c.accesses)
}

// publicSetup builds one cell's system through the public set-up calls:
// GenerateMapping, NewSystem and System.Map.
func publicSetup(c cell) error {
	spec, err := workload.ByName(c.bench)
	if err != nil {
		return err
	}
	chunks, err := hybridtlb.GenerateMapping(c.scenario, c.footprintPages(spec), c.seed, c.pressure)
	if err != nil {
		return err
	}
	sys, err := hybridtlb.NewSystem(c.scheme)
	if err != nil {
		return err
	}
	return sys.Map(chunks)
}

// runSweeper runs cells as one cold sweep through the public Sweeper at
// Parallelism = nproc.
func (r *run) runSweeper(cells []cell) ([]counts, error) {
	cfgs := make([]hybridtlb.SimulationConfig, len(cells))
	for i, c := range cells {
		cfgs[i] = c.config()
	}
	res, err := hybridtlb.NewSweeper(hybridtlb.SweepOptions{Parallelism: r.nproc}).Run(context.Background(), cfgs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]counts, len(res))
	for i, x := range res {
		out[i] = fromResult(x.SimulationResult)
	}
	return out, nil
}

func simulate(c cell) (counts, error) {
	res, err := hybridtlb.Simulate(c.config())
	return fromResult(res), err
}

// churnJob is the sweep engine's job for a churn cell.
func churnJob(c cell) (sweep.Job, error) {
	spec, err := workload.ByName(c.bench)
	if err != nil {
		return sweep.Job{}, err
	}
	scheme, err := mmu.ParseScheme(c.scheme)
	if err != nil {
		return sweep.Job{}, err
	}
	sc, err := mapping.ParseScenario(c.scenario)
	if err != nil {
		return sweep.Job{}, err
	}
	return sweep.Job{
		Config: sim.Config{Scheme: scheme, Workload: spec, Scenario: sc, Accesses: c.accesses,
			Seed: c.seed, Pressure: c.pressure},
		ChurnIntervalInstructions: c.churnInterval,
		ChurnPages:                c.churnPages,
	}, nil
}

func fromSim(res sim.Result) counts {
	s := res.Stats
	return counts{s.Accesses, s.L1Hits, s.L2RegularHits, s.CoalescedHits, s.Misses(), s.Cycles,
		res.Instructions, res.AnchorDistance}
}

// runChurnSweep runs churn cells as one cold sweep through the sweep
// engine at Parallelism = nproc, and fails any cell that faulted. It
// returns each cell's host latency: from the engine building the cell's
// probe, just before it simulates (a churn cell never calls the probe),
// to the engine reporting it done.
func (r *run) runChurnSweep(cells []cell) ([]counts, []float64, error) {
	jobs := make([]sweep.Job, len(cells))
	for i, c := range cells {
		j, err := churnJob(c)
		if err != nil {
			return nil, nil, err
		}
		jobs[i] = j
	}
	var mu sync.Mutex
	started := map[string]time.Time{}
	var lat []float64
	eng := sweep.New(sweep.Options{
		Parallelism: r.nproc,
		Probe: func(j sweep.Job) sim.Probe {
			mu.Lock()
			started[j.String()] = time.Now()
			mu.Unlock()
			return nil
		},
		Progress: func(_, _ int, j sweep.Job) {
			mu.Lock()
			if t, ok := started[j.String()]; ok {
				lat = append(lat, ms(time.Since(t)))
			}
			mu.Unlock()
		},
	})
	res, err := eng.Run(context.Background(), jobs)
	if err != nil {
		return nil, nil, err
	}
	out := make([]counts, len(res))
	for i, x := range res {
		out[i] = fromSim(x.Res)
		r.check(x.Res.Stats.Faults == 0, "%v: %d faults under churn", cells[i], x.Res.Stats.Faults)
	}
	r.check(len(lat) == len(cells), "churn sweep timed %d of %d cells", len(lat), len(cells))
	return out, lat, nil
}

// churnReference runs one churn cell serially through sim.RunWithChurn.
func churnReference(c cell) (counts, error) {
	j, err := churnJob(c)
	if err != nil {
		return counts{}, err
	}
	res, _, err := sim.RunWithChurn(sim.ChurnConfig{Config: j.Config,
		ChurnIntervalInstructions: c.churnInterval, ChurnPages: c.churnPages})
	return fromSim(res), err
}

// seededSample picks n distinct indices of [0, total) from the seed.
func seededSample(seed int64, total, n int) []int {
	p := rand.New(rand.NewSource(seed)).Perm(total)
	if n > total {
		n = total
	}
	return p[:n]
}

// tracedSim is the traced run of a simulator workload: the untraced unit
// once (the baseline the tracing overhead is measured against), then
// the same cells rebuilt from layer calls under spans, checked equal.
func (r *run) tracedSim(w simWork) error {
	before := readGoStats()
	start := time.Now()
	want, err := w.runUnit(w.cells)
	untraced := time.Since(start)
	if !r.op(err) {
		return err
	}
	var simulated uint64
	for _, c := range w.cells {
		simulated += c.simulated()
	}
	r.setGoMetrics(before, simulated)
	// No server runs here, and every unit is a cold sweep.
	for _, name := range []string{"server.queue_wait_ms_p50", "server.queue_wait_ms_p90", "server.job_run_ms_p50", "loadgen.late_ms_p99"} {
		r.set(name, "ms", 0)
	}
	r.set("server.shed", "count", 0)
	r.set("sweep.cache_hit_ratio", "ratio", 0)
	return r.traceCells(w, want, untraced, min(r.nproc, len(w.cells)))
}

// traceCells rebuilds w's cells on par workers under spans, holds them
// to the untraced results want (which took untraced to produce at the
// same parallelism), adds the panel, and reports the per-layer metrics.
func (r *run) traceCells(w simWork, want []counts, untraced time.Duration, par int) error {
	got, lt, shape := r.rebuildAll(w.cells, par, "sweep.run")
	for i, c := range w.cells {
		r.check(got[i] == want[i], "%v: traced rebuild %+v, untraced %+v", c, got[i], want[i])
	}
	r.set("tracing.overhead_share", "ratio", (shape.wall.Seconds()-untraced.Seconds())/untraced.Seconds())
	r.set("sweep.busy_ratio", "ratio", shape.busy)
	r.set("sweep.tail_s", "s", shape.tail.Seconds())
	r.set("sim.cell_ms_p50", "ms", percentile(lt.cellMs, 50))
	r.set("sim.cell_ms_p90", "ms", percentile(lt.cellMs, 90))

	if len(w.panel) > 0 {
		_, plt, _ := r.rebuildAll(w.panel, min(par, len(w.panel)), "sim.panel")
		for k, v := range plt.perScheme {
			if _, ok := lt.perScheme[k]; !ok {
				lt.perScheme[k] = v
			}
		}
	}
	r.reportLayers(lt, want, w.cells)
	if err := r.decodeProbe(w); err != nil {
		return err
	}
	speedup := 0.0
	if w.shardCell != nil {
		var err error
		if speedup, err = r.shardSpeedup(*w.shardCell); err != nil {
			return err
		}
	}
	r.set("sim.shard_speedup", "ratio", speedup)
	return nil
}

// reportLayers turns a traced rebuild's accumulated times and counts
// into the per-layer metrics.
func (r *run) reportLayers(lt *layerTimes, res []counts, cells []cell) {
	per := func(d time.Duration, n uint64, unit float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / unit / float64(n)
	}
	n := uint64(max(lt.cells, 1))
	r.set("workload.ns_per_record", "ns", per(lt.genRead, lt.genRecs, 1))
	r.set("mapping.generate_ms", "ms", per(lt.generate, n, 1e6))
	r.set("mapping.chunks", "count", float64(lt.chunks)/float64(n))
	r.set("osmem.install_ms", "ms", per(lt.install, n, 1e6))
	r.set("pagetable.nodes", "count", float64(lt.ptNodes)/float64(n))
	r.set("osmem.reselect_us", "us", per(lt.reselect, lt.reselectsTimed, 1e3))
	r.set("osmem.reselect_calls", "count", float64(lt.reselectCalls))
	r.set("osmem.distance_changes", "count", float64(lt.distChgs))
	r.set("osmem.remap_us", "us", per(lt.remap, lt.remapOps, 1e3))
	r.set("osmem.entry_shootdowns_per_op", "count", float64(lt.remapShootdowns)/float64(max(lt.remapOps, 1)))
	r.set("pagetable.pte_writes", "count", float64(lt.pteWrites))
	r.set("osmem.remap_share", "ratio", float64(lt.churnRemap)/float64(max(lt.cellTime, 1)))
	r.set("core.select_distance_us", "us", per(lt.selectDist, lt.selectCalls, 1e3))
	r.set("pagetable.walk_ns", "ns", per(lt.walk, lt.walkOps, 1))
	r.set("tlb.lookup_ns", "ns", per(lt.lookup, lt.tlbOps, 1))
	r.set("tlb.insert_ns", "ns", per(lt.insert, lt.tlbOps, 1))
	r.set("sim.drive_share", "ratio", float64(lt.translate)/float64(max(lt.cellTime, 1)))
	r.check(lt.translateMismatch == 0, "%d of %d sampled mmu.Translate PFNs differ from the OS model",
		lt.translateMismatch, lt.translateChecks)

	hw := mmu.DefaultConfig()
	var all, anchor counts
	for _, s := range hybridtlb.Schemes() {
		st := lt.perScheme[s]
		if st == nil {
			st = &schemeTimes{}
		}
		r.set("mmu."+s+".ns_per_access", "ns", per(st.translate, st.accesses, 1))
		k := st.stats
		mpki, cpi := 0.0, 0.0
		if k.Instructions > 0 {
			mpki = float64(k.Misses) / float64(k.Instructions) * 1e3
			cpi = float64(k.L2RegularHits*hw.L2HitCycles+k.CoalescedHits*hw.CoalescedHitCycles+k.Misses*hw.WalkCycles) / float64(k.Instructions)
		}
		r.set("mmu."+s+".mpki", "1/kinstr", mpki)
		r.set("mmu."+s+".cpi", "cycles/instr", cpi)
	}
	for i, c := range cells {
		all = addCounts(all, res[i])
		if c.scheme == hybridtlb.SchemeAnchor {
			anchor = addCounts(anchor, res[i])
		}
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	l2 := all.L2RegularHits + all.CoalescedHits + all.Misses
	r.set("mmu.l1_hit_ratio", "ratio", ratio(all.L1Hits, all.Accesses))
	r.set("mmu.l2_hit_ratio", "ratio", ratio(all.L2RegularHits+all.CoalescedHits, l2))
	r.set("mmu.coalesced_hit_ratio", "ratio", ratio(all.CoalescedHits, l2))
	r.set("mmu.walk_ratio", "ratio", ratio(all.Misses, all.Accesses))
	r.set("mmu.anchor.probe_hit_ratio", "ratio", ratio(anchor.CoalescedHits, anchor.CoalescedHits+anchor.Misses))
}
