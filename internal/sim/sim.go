// Package sim drives workloads through translation schemes: it wires a
// mapping scenario, an OS process, an MMU and a workload trace together,
// runs the access stream with periodic anchor-distance re-selection (the
// paper checks every one billion instructions), and reports the metrics
// the evaluation section plots — relative TLB misses, L2 hit breakdowns
// and translation cycles per instruction.
package sim

import (
	"fmt"
	"math"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// ProbeSample is one per-epoch observation delivered to a Probe: the
// cumulative state of the run when an epoch boundary was crossed.
type ProbeSample struct {
	// Epoch counts boundaries crossed so far, starting at 1.
	Epoch int
	// Instructions retired since the start of the run (warmup included).
	Instructions uint64
	// Stats are the MMU's cumulative counters (warmup included).
	Stats mmu.Stats
	// AnchorDistance is the process anchor distance after any
	// re-selection this boundary triggered (anchor-family schemes;
	// 0 for schemes without anchors).
	AnchorDistance uint64
}

// Probe observes epoch boundaries. It runs outside the per-access inner
// loop — once per EpochInstructions — so observability never costs the
// hot path anything. Probes fire on every scheme (for non-anchor schemes
// the boundary triggers no re-selection, only the observation) and must
// not mutate simulation state; they are excluded from sweep cache keys.
type Probe func(ProbeSample)

// Config parameterizes one simulation run.
type Config struct {
	Scheme   mmu.Scheme
	Workload workload.Spec
	Scenario mapping.Scenario

	// Hardware configuration (zero value: Table 3 via DefaultConfig).
	HW mmu.Config

	// FootprintPages overrides the workload's default footprint.
	FootprintPages uint64
	// Accesses is the trace length (default 1,000,000).
	Accesses uint64
	// WarmupAccesses run before counters reset (default Accesses/10).
	WarmupAccesses uint64
	// Seed drives both mapping generation and the workload.
	Seed int64
	// Pressure is the background fragmentation for buddy-backed
	// scenarios.
	Pressure float64

	// FixedDistance pins the anchor distance and disables dynamic
	// re-selection (the static configuration). Zero selects dynamically.
	FixedDistance uint64
	// EpochInstructions is the dynamic re-selection period (the paper
	// uses 1e9; the scaled default is 10,000,000).
	EpochInstructions uint64
	// SweepCost models distance-change cost (zero: the calibrated
	// default).
	SweepCost osmem.SweepCostModel
	// CostModel selects the distance-selection cost model (zero: the
	// paper-faithful entry count; core.CostCapacityAware is this
	// repository's capacity-aware extension).
	CostModel core.CostModel
	// MultiRegionAnchors installs per-region anchor distances (the
	// paper's Section 4.2 future-work extension) instead of one
	// process-wide distance. Requires the anchor scheme; FixedDistance
	// is ignored.
	MultiRegionAnchors bool
	// DetailedWalk replaces the flat 50-cycle walk latency with the
	// cache+PWC walk model (an ablation of the Table 3 assumption).
	DetailedWalk bool

	// Probe, when non-nil, is called at every epoch boundary with a
	// snapshot of the run. Purely observational: it never changes
	// results, and the sweep engine excludes it from cache keys.
	Probe Probe

	// Shards is accepted for compatibility and has no effect.
	Shards int
}

// WithDefaults returns the config with every zero field replaced by its
// default — the configuration Run actually simulates. The sweep engine
// normalizes configs this way before hashing, so a config and its
// defaulted form share one cache cell. It is idempotent.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.HW == (mmu.Config{}) {
		c.HW = mmu.DefaultConfig()
	}
	if c.FootprintPages == 0 {
		c.FootprintPages = c.Workload.FootprintPages
	}
	if c.Accesses == 0 {
		c.Accesses = 1_000_000
	}
	if c.WarmupAccesses == 0 {
		c.WarmupAccesses = c.Accesses / 10
	}
	if c.EpochInstructions == 0 {
		c.EpochInstructions = 10_000_000
	}
	if c.SweepCost == (osmem.SweepCostModel{}) {
		c.SweepCost = osmem.DefaultSweepCost
	}
	return c
}

// Result reports one simulation.
type Result struct {
	Scheme   mmu.Scheme
	Workload string
	Scenario mapping.Scenario

	Stats        mmu.Stats
	Instructions uint64

	// Mapping/OS facts.
	Chunks          int
	HugePages       int
	AnchorDistance  uint64 // final distance (anchor scheme)
	DistanceChanges uint64

	// AnchorActions breaks anchor-scheme L2 flows down by Table 2 row.
	AnchorActions map[core.L2Action]uint64
}

// MissesPerMillionInstructions is the paper's underlying miss-rate metric.
func (r Result) MissesPerMillionInstructions() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Stats.Misses()) / float64(r.Instructions) * 1e6
}

// RelativeMisses returns this run's misses normalized to a baseline run
// (the y-axis of Figures 2 and 7-9), in percent.
func (r Result) RelativeMisses(base Result) float64 {
	if base.Stats.Misses() == 0 {
		if r.Stats.Misses() == 0 {
			return 100
		}
		return 0
	}
	return 100 * float64(r.Stats.Misses()) / float64(base.Stats.Misses())
}

// CPIBreakdown is the translation cycles-per-instruction split plotted in
// Figures 10 and 11.
type CPIBreakdown struct {
	L2Hit     float64 // cycles spent on regular L2 hits
	Coalesced float64 // cycles on anchor / cluster / range hits
	Walk      float64 // cycles on page table walks
}

// Total returns the full translation CPI.
func (c CPIBreakdown) Total() float64 { return c.L2Hit + c.Coalesced + c.Walk }

// CPI computes the translation CPI breakdown under the given latencies.
func (r Result) CPI(hw mmu.Config) CPIBreakdown {
	if r.Instructions == 0 {
		return CPIBreakdown{}
	}
	inv := 1 / float64(r.Instructions)
	return CPIBreakdown{
		L2Hit:     float64(r.Stats.L2RegularHits*hw.L2HitCycles) * inv,
		Coalesced: float64(r.Stats.CoalescedHits*hw.CoalescedHitCycles) * inv,
		Walk:      float64((r.Stats.Walks+r.Stats.Faults)*hw.WalkCycles) * inv,
	}
}

// L2Breakdown returns the Table 5 row: fractions of L2 accesses served by
// regular entries, coalesced entries, and misses.
func (r Result) L2Breakdown() (regular, coalesced, miss float64) {
	total := r.Stats.L2Accesses()
	if total == 0 {
		return 0, 0, 0
	}
	inv := 1 / float64(total)
	return float64(r.Stats.L2RegularHits) * inv,
		float64(r.Stats.CoalescedHits) * inv,
		float64(r.Stats.Misses()) * inv
}

// driveFunc pushes a trace through an MMU. Run and RunTrace pass
// driveAll, the batched drive; the equivalence suite substitutes its
// record-at-a-time reference to hold the two together.
type driveFunc func(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, res *Result)

// Run executes one simulation.
func Run(cfg Config) (Result, error) { return run(cfg, driveAll) }

func run(cfg Config, driveFn driveFunc) (Result, error) { return runTrace(cfg, nil, driveFn) }

// cell is one simulation wired up: the mapping installed into an OS
// process under the scheme's policy, the MMU over that process, and the
// result header the drive and result complete. Every entry point —
// Run, RunTrace, RunWithChurn, the Inputs runs and each process of
// RunMultiProcess — sets up through newCell and reports through result.
type cell struct {
	cfg  Config
	in   *Inputs // shared inputs, or nil when the cell generates its own
	mp   preparedMapping
	proc *osmem.Process
	m    mmu.MMU
	res  Result
}

// preparedMapping is a generated chunk list ready to install: sorted and
// coalesced, so processes can share it, plus what a cell needs of the
// list as generated — its length (the reported chunk count), its first
// chunk's start (the trace's base) and its last chunk's end (the end of
// the churn range).
type preparedMapping struct {
	chunks           mem.ChunkList
	generated        int
	startVPN, endVPN mem.VPN
}

// prepareMapping generates and prepares a defaulted config's mapping.
func prepareMapping(cfg Config) (preparedMapping, error) {
	cl, err := mapping.Generate(cfg.Scenario, mapping.Config{
		FootprintPages: cfg.FootprintPages,
		Seed:           cfg.Seed,
		Pressure:       cfg.Pressure,
		FineGrained:    cfg.Workload.FineGrainedAlloc,
	})
	if err != nil {
		return preparedMapping{}, fmt.Errorf("sim: generating mapping: %w", err)
	}
	sorted, err := osmem.PrepareChunks(cl)
	if err != nil {
		return preparedMapping{}, fmt.Errorf("sim: installing mapping: %w", err)
	}
	return preparedMapping{
		chunks:    sorted,
		generated: len(cl),
		startVPN:  cl[0].StartVPN,
		endVPN:    cl[len(cl)-1].EndVPN(),
	}, nil
}

// newCell sets up one simulation from a defaulted config: it takes the
// shared inputs' mapping, or generates one when in is nil, applies
// DetailedWalk, installs the mapping (per-region anchor distances under
// MultiRegionAnchors, else one process-wide distance) and builds the
// MMU. The process shares the prepared chunk list and never writes it.
func newCell(cfg Config, in *Inputs) (*cell, error) {
	var mp preparedMapping
	if in != nil {
		mp = in.mp
	} else {
		var err error
		if mp, err = prepareMapping(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.DetailedWalk {
		cfg.HW.Walk = mmu.NewWalkModel()
	}
	pol := cfg.Scheme.Policy()
	pol.Cost = cfg.CostModel
	proc := osmem.NewProcess(pol)
	var err error
	if cfg.MultiRegionAnchors {
		err = proc.InstallPreparedRegions(mp.chunks, 0)
	} else {
		err = proc.InstallPrepared(mp.chunks, cfg.FixedDistance)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: installing mapping: %w", err)
	}
	return &cell{
		cfg:  cfg,
		in:   in,
		mp:   mp,
		proc: proc,
		m:    mmu.New(cfg.Scheme, cfg.HW, proc),
		res: Result{
			Scheme:   cfg.Scheme,
			Workload: cfg.Workload.Name,
			Scenario: cfg.Scenario,
			Chunks:   mp.generated,
		},
	}, nil
}

// generator returns the workload's access stream over the mapped
// footprint, records long.
func (c *cell) generator(records uint64) trace.Source {
	return c.cfg.Workload.NewGenerator(c.mp.startVPN, c.cfg.FootprintPages, records, c.cfg.Seed)
}

// source returns the cell's whole trace, WarmupAccesses+Accesses
// records: a replay of the shared inputs' records, which are exactly
// that long, or the workload's generator when the cell has no shared
// trace.
func (c *cell) source() trace.Source {
	if c.in != nil && c.in.records != nil {
		return trace.NewSliceSource(c.in.records)
	}
	return c.generator(c.cfg.WarmupAccesses + c.cfg.Accesses)
}

// result completes the result with the OS facts at the end of the run;
// the drive has already filled Stats and Instructions.
func (c *cell) result() Result {
	c.res.HugePages = c.proc.HugePages()
	c.res.AnchorDistance = c.proc.AnchorDistance()
	c.res.DistanceChanges = c.proc.DistanceChanges()
	if am, ok := c.m.(interface {
		Actions() map[core.L2Action]uint64
	}); ok {
		c.res.AnchorActions = am.Actions()
	}
	return c.res
}

// finish returns the result. A cell on shared inputs then releases its
// page table: such cells run back to back, so the next one set up reuses
// its leaves. Nothing of the cell is used again.
func (c *cell) finish() Result {
	res := c.result()
	if c.in != nil {
		c.proc.Release()
	}
	return res
}

// batchRecords is the drive loop's batch size: large enough to amortize
// the per-batch bookkeeping to nothing, small enough that the record and
// VPN buffers (96 KiB together) stay cache-resident.
const batchRecords = 4096

// drive pushes a trace through an MMU in batches, resetting counters
// after warmup, running the periodic distance re-selection and, when set,
// an interval action (the churn remap). Each batch is sliced into
// segments that stop exactly where a per-record loop would act: at the
// warmup boundary (counted in accesses), or at the first record that
// crosses an epoch, the action interval or the caller's quantum (counted
// in instructions). So the boundary checks live here, at segment
// granularity, instead of inside the translation inner loop. The drive
// keeps its buffers and its place in them between calls to run, so a
// scheduler can stop it at a quantum and resume it later. Results are
// byte-identical to the record-at-a-time references in the tests.
type drive struct {
	m                    mmu.MMU
	proc                 *osmem.Process
	src                  trace.BatchSource
	cfg                  Config
	dynamic, trackEpochs bool

	// recs[pos:n] are read but not yet translated; vpns mirrors recs.
	recs   []trace.Record
	vpns   []mem.VPN
	pos, n int

	instructions, sinceEpoch, warmLeft, warmInstr uint64
	warmStats                                     mmu.Stats
	epoch                                         int

	// interval, when non-zero, fires action after the first record that
	// brings the instructions since its last firing to interval.
	interval, sinceAction uint64
	action                func() error
}

func newDrive(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config) *drive {
	dynamic := cfg.Scheme.Policy().Anchors && cfg.FixedDistance == 0
	return &drive{
		m:           m,
		proc:        proc,
		src:         trace.Batched(src),
		cfg:         cfg,
		dynamic:     dynamic,
		trackEpochs: dynamic || cfg.Probe != nil,
		recs:        make([]trace.Record, batchRecords),
		vpns:        make([]mem.VPN, batchRecords),
		warmLeft:    cfg.WarmupAccesses,
	}
}

// driveAll is the production driveFunc: one batched drive over the
// whole trace.
func driveAll(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, res *Result) {
	d := newDrive(m, proc, src, cfg)
	// Run to the end, so done is true; only an interval action can fail.
	_, _ = d.run(0)
	d.finish(res)
}

// run translates records until the source is exhausted, reporting done,
// or — with a non-zero quantum — until the first record that brings this
// call's instructions to quantum. The source is read only when a record
// is needed, so a quantum that ends on the last record leaves done to
// the next call. An error from the interval action stops the drive.
func (d *drive) run(quantum uint64) (done bool, err error) {
	recs, vpns := d.recs, d.vpns
	var ran uint64
	// The batch loop is the per-access path: newDrive's two
	// batchRecords-sized buffers are the only allocation the drive makes.
	//tlbvet:hotpath
	for {
		if d.pos == d.n {
			d.pos, d.n = 0, d.src.ReadBatch(recs)
			if d.n == 0 {
				return true, nil
			}
			for i := 0; i < d.n; i++ {
				vpns[i] = recs[i].VPN
			}
		}
		// The segment ends at the batch end, the warmup boundary, or the
		// first record whose instructions reach the nearest of the
		// instruction budgets — whichever comes first. Each counter is
		// below its period here (it resets on every crossing), so every
		// budget is at least one, and every budget the segment's
		// instructions reach was crossed on its last record.
		start, end := d.pos, d.n
		if d.warmLeft > 0 && uint64(end-start) > d.warmLeft {
			end = start + int(d.warmLeft)
		}
		budget := uint64(math.MaxUint64)
		if d.trackEpochs {
			budget = d.cfg.EpochInstructions - d.sinceEpoch
		}
		if d.interval > 0 {
			budget = min(budget, d.interval-d.sinceAction)
		}
		if quantum > 0 {
			budget = min(budget, quantum-ran)
		}
		var seg uint64
		for i := start; i < end; i++ {
			seg += uint64(recs[i].Instrs)
			if seg >= budget {
				end = i + 1
				break
			}
		}

		d.m.TranslateBatch(vpns[start:end])
		d.instructions += seg
		d.pos = end

		// The per-record loops act after translating a record, in this
		// order: warmup snapshot, interval action, epoch re-selection and
		// probe. Applying them in the same order keeps one record that
		// is several boundaries at once byte-identical.
		if d.warmLeft > 0 {
			d.warmLeft -= uint64(end - start)
			if d.warmLeft == 0 {
				d.warmStats = d.m.Stats()
				d.warmInstr = d.instructions
			}
		}
		if d.interval > 0 {
			if d.sinceAction += seg; d.sinceAction >= d.interval {
				d.sinceAction = 0
				if err := d.action(); err != nil {
					return false, err
				}
			}
		}
		if d.trackEpochs {
			if d.sinceEpoch += seg; d.sinceEpoch >= d.cfg.EpochInstructions {
				d.sinceEpoch = 0
				d.endEpoch()
			}
		}
		if quantum > 0 {
			if ran += seg; ran >= quantum {
				return false, nil
			}
		}
	}
}

// endEpoch re-selects the anchor distance (dynamic schemes) and reports
// the boundary to the probe.
func (d *drive) endEpoch() {
	if d.dynamic {
		d.proc.Reselect(d.cfg.SweepCost)
	}
	if d.cfg.Probe == nil {
		return
	}
	d.epoch++
	dist := uint64(0)
	if d.proc.Policy().Anchors {
		dist = d.proc.AnchorDistance()
	}
	d.cfg.Probe(ProbeSample{
		Epoch:          d.epoch,
		Instructions:   d.instructions,
		Stats:          d.m.Stats(),
		AnchorDistance: dist,
	})
}

// finish records the measured counters: everything after warmup.
func (d *drive) finish(res *Result) {
	res.Stats = subStats(d.m.Stats(), d.warmStats)
	res.Instructions = d.instructions - d.warmInstr
}

func subStats(a, b mmu.Stats) mmu.Stats {
	return mmu.Stats{
		Accesses:      a.Accesses - b.Accesses,
		L1Hits:        a.L1Hits - b.L1Hits,
		L2RegularHits: a.L2RegularHits - b.L2RegularHits,
		CoalescedHits: a.CoalescedHits - b.CoalescedHits,
		Walks:         a.Walks - b.Walks,
		Faults:        a.Faults - b.Faults,
		Cycles:        a.Cycles - b.Cycles,
	}
}

// StaticIdealConfigs expands the paper's "static ideal" configuration
// into its per-distance probe configs: one run per candidate anchor
// distance with the dynamic selection disabled. Callers run the probes —
// serially here in RunStaticIdeal, or concurrently and cached through
// internal/sweep — and reduce them with BestStaticIdeal.
func StaticIdealConfigs(cfg Config) ([]Config, error) {
	if !cfg.Scheme.Policy().Anchors {
		return nil, fmt.Errorf("sim: static-ideal requires an anchor scheme, got %v", cfg.Scheme)
	}
	ds := core.Distances()
	out := make([]Config, 0, len(ds))
	for _, d := range ds {
		c := cfg
		c.FixedDistance = d
		out = append(out, c)
	}
	return out, nil
}

// BestStaticIdeal picks the static-ideal winner from per-distance
// results in StaticIdealConfigs order: fewest misses, earliest distance
// on ties.
func BestStaticIdeal(all []Result) Result {
	var best Result
	for i, r := range all {
		if i == 0 || r.Stats.Misses() < best.Stats.Misses() {
			best = r
		}
	}
	return best
}

// RunStaticIdeal exhaustively evaluates every anchor distance with the
// dynamic selection disabled and returns the best run (fewest misses)
// — the paper's "static ideal" configuration — along with every
// per-distance result. The probes differ only in distance, so they
// share one set of inputs.
func RunStaticIdeal(cfg Config) (Result, []Result, error) {
	cfgs, err := StaticIdealConfigs(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	in, err := NewInputs(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	all := make([]Result, 0, len(cfgs))
	for _, c := range cfgs {
		r, err := in.Run(c)
		if err != nil {
			return Result{}, nil, err
		}
		all = append(all, r)
	}
	return BestStaticIdeal(all), all, nil
}
