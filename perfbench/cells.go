package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hybridtlb"
	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// cell is one simulation: a scheme over one benchmark's accesses on one
// mapping scenario, optionally under churn or replaying a trace file.
type cell struct {
	scheme   string
	bench    string
	scenario string
	pressure float64
	accesses uint64 // measured accesses; a further 10% runs as warmup
	seed     int64
	// footprint overrides the benchmark's default footprint in pages.
	footprint uint64
	// churnInterval and churnPages, when set, remap churnPages pages
	// every churnInterval instructions (sim.RunWithChurn).
	churnInterval, churnPages uint64
	// tracePath, when set, replays a recorded trace instead of
	// generating the accesses.
	tracePath string
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%s seed=%d", c.scheme, c.bench, c.scenario, c.seed)
}

func (c cell) footprintPages(spec workload.Spec) uint64 {
	if c.footprint != 0 {
		return c.footprint
	}
	return spec.FootprintPages
}

// simulated is the total accesses a cell simulates, warmup included.
func (c cell) simulated() uint64 { return c.accesses + c.accesses/10 }

func (c cell) config() hybridtlb.SimulationConfig {
	return hybridtlb.SimulationConfig{
		Scheme: c.scheme, Workload: c.bench, Scenario: c.scenario,
		Accesses: c.accesses, Seed: c.seed, Pressure: c.pressure, FootprintPages: c.footprint,
		TracePath: c.tracePath,
	}
}

// counts are a cell's simulated outcome, compared exactly between the
// untraced library run and the traced rebuild.
type counts struct {
	Accesses, L1Hits, L2RegularHits, CoalescedHits, Misses, Cycles, Instructions uint64
	Distance                                                                     uint64
}

func fromResult(r hybridtlb.SimulationResult) counts {
	s := r.Stats
	return counts{s.Accesses, s.L1Hits, s.L2RegularHits, s.CoalescedHits, s.Misses, s.Cycles, r.Instructions, r.AnchorDistance}
}

// sums checks that the outcome counters add up to the accesses asked for.
func (k counts) sums(want uint64) bool {
	return k.Accesses == want && k.L1Hits+k.L2RegularHits+k.CoalescedHits+k.Misses == want
}

// layerTimes accumulates the host time a traced cell spent per layer
// call, and the OS work counts those calls did.
type layerTimes struct {
	cells                                   int
	cellTime                                time.Duration
	generate, install, mmuNew               time.Duration
	chunks, ptNodes, pteWrites              uint64
	genRead                                 time.Duration // generator batches only
	genRecs                                 uint64
	translate                               time.Duration
	reselect                                time.Duration
	reselectCalls, reselectsTimed, distChgs uint64 // calls: in-run; timed: with the probe
	remap                                   time.Duration
	remapOps, remapShootdowns               uint64
	churnRemap                              time.Duration // in-run remaps only
	selectDist                              time.Duration
	selectCalls                             uint64
	walk, lookup, insert                    time.Duration
	walkOps, tlbOps                         uint64
	translateChecks, translateMismatch      int
	cellMs                                  []float64
	perScheme                               map[string]*schemeTimes
}

type schemeTimes struct {
	translate time.Duration
	accesses  uint64
	stats     counts
}

func newLayerTimes() *layerTimes { return &layerTimes{perScheme: map[string]*schemeTimes{}} }

func (a *layerTimes) merge(b *layerTimes) {
	a.cells += b.cells
	a.cellTime += b.cellTime
	a.generate += b.generate
	a.install += b.install
	a.mmuNew += b.mmuNew
	a.chunks += b.chunks
	a.ptNodes += b.ptNodes
	a.pteWrites += b.pteWrites
	a.genRead += b.genRead
	a.genRecs += b.genRecs
	a.translate += b.translate
	a.reselect += b.reselect
	a.reselectCalls += b.reselectCalls
	a.reselectsTimed += b.reselectsTimed
	a.distChgs += b.distChgs
	a.remap += b.remap
	a.remapOps += b.remapOps
	a.remapShootdowns += b.remapShootdowns
	a.churnRemap += b.churnRemap
	a.selectDist += b.selectDist
	a.selectCalls += b.selectCalls
	a.walk += b.walk
	a.lookup += b.lookup
	a.insert += b.insert
	a.walkOps += b.walkOps
	a.tlbOps += b.tlbOps
	a.translateChecks += b.translateChecks
	a.translateMismatch += b.translateMismatch
	a.cellMs = append(a.cellMs, b.cellMs...)
	for k, v := range b.perScheme {
		s := a.perScheme[k]
		if s == nil {
			s = &schemeTimes{}
			a.perScheme[k] = s
		}
		s.translate += v.translate
		s.accesses += v.accesses
		s.stats = addCounts(s.stats, v.stats)
	}
}

func addCounts(a, b counts) counts {
	return counts{a.Accesses + b.Accesses, a.L1Hits + b.L1Hits, a.L2RegularHits + b.L2RegularHits,
		a.CoalescedHits + b.CoalescedHits, a.Misses + b.Misses, a.Cycles + b.Cycles,
		a.Instructions + b.Instructions, 0}
}

const (
	batchRecords  = 4096       // the library drive loop's batch size
	defaultEpoch  = 10_000_000 // instructions between anchor re-selections
	remapPages    = 256        // pages per probe remap
	checkedVPNs   = 64         // mmu.Translate PFNs checked per cell
	freshPFNShift = 38         // remaps take frames above anything generated
)

// rebuild runs one cell from layer calls — mapping.Generate,
// InstallChunks, mmu.New, ReadBatch/TranslateBatch (or per-record
// Translate under churn) and Reselect at epoch boundaries — with a span
// around each call. It mirrors the library's drive loops so its counters
// must equal the untraced run's, then checks a sample of mmu.Translate
// PFNs against the OS model and times one call of each remaining layer
// on the cell's own state.
func (r *run) rebuild(c cell, parent int32, lt *layerTimes) (counts, error) {
	tr := r.tr
	spec, err := workload.ByName(c.bench)
	if err != nil {
		return counts{}, err
	}
	scheme, err := mmu.ParseScheme(c.scheme)
	if err != nil {
		return counts{}, err
	}
	sc, err := mapping.ParseScenario(c.scenario)
	if err != nil {
		return counts{}, err
	}
	hw := mmu.DefaultConfig()
	warmup := c.accesses / 10
	cs := tr.begin("sim.cell", parent)

	s := tr.begin("mapping.generate", cs.id)
	footprint := c.footprintPages(spec)
	cl, err := mapping.Generate(sc, mapping.Config{FootprintPages: footprint, Seed: c.seed,
		Pressure: c.pressure, FineGrained: spec.FineGrainedAlloc})
	lt.generate += tr.end(s)
	if err != nil {
		return counts{}, err
	}
	s = tr.begin("osmem.install", cs.id)
	pol := scheme.Policy()
	proc := osmem.NewProcess(pol)
	err = proc.InstallChunks(cl, 0)
	lt.install += tr.end(s)
	if err != nil {
		return counts{}, err
	}
	s = tr.begin("mmu.new", cs.id)
	m := mmu.New(scheme, hw, proc)
	lt.mmuNew += tr.end(s)
	lt.chunks += uint64(len(cl))
	lt.ptNodes += proc.PageTable().Stats().Nodes
	installWrites := proc.PageTable().Stats().PTEWrites

	dynamic := pol.Anchors
	st := lt.perScheme[c.scheme]
	if st == nil {
		st = &schemeTimes{}
		lt.perScheme[c.scheme] = st
	}
	reselectIn := func(parent int32) {
		s := tr.begin("osmem.reselect", parent)
		proc.Reselect(osmem.DefaultSweepCost)
		lt.reselect += tr.end(s)
		lt.reselectsTimed++
	}
	reselect := func() {
		reselectIn(cs.id)
		lt.reselectCalls++
	}

	var stats mmu.Stats
	var instrs uint64
	var lastVPNs []mem.VPN
	if c.churnInterval != 0 {
		stats, instrs, lastVPNs = r.driveChurn(c, spec, cl, proc, m, cs.id, reselect, st, lt)
	} else {
		var src trace.BatchSource
		readName := "workload.read_batch"
		if c.tracePath != "" {
			f, closeF, err := trace.OpenPath(c.tracePath)
			if err != nil {
				return counts{}, err
			}
			defer closeF()
			src = trace.Limit(f, warmup+c.accesses)
			readName = "trace.read_batch"
		} else {
			src = spec.NewGenerator(cl[0].StartVPN, footprint, warmup+c.accesses, c.seed)
		}
		stats, instrs, lastVPNs = r.driveBatched(src, readName, m, cs.id, warmup, dynamic, reselect, st, lt)
	}
	lt.distChgs += proc.DistanceChanges()
	lt.pteWrites += proc.PageTable().Stats().PTEWrites - installWrites
	out := counts{stats.Accesses, stats.L1Hits, stats.L2RegularHits, stats.CoalescedHits,
		stats.Misses(), stats.Cycles, instrs, proc.AnchorDistance()}
	st.accesses += stats.Accesses + warmup
	st.stats = addCounts(st.stats, out)
	d := tr.end(cs)
	lt.cells++
	lt.cellTime += d
	lt.cellMs = append(lt.cellMs, ms(d))

	// The counters are final; everything below probes the cell's own
	// state, under its own span, and cannot change them.
	ps := tr.begin("sim.probe", parent)
	r.checkTranslations(m, proc, lastVPNs, lt)
	r.probeLayers(proc, hw, lastVPNs, ps.id, lt)
	if pol.Anchors {
		reselectIn(ps.id)
	}
	tr.end(ps)
	return out, nil
}

// driveBatched mirrors the library's batched drive: batches split at the
// warmup boundary and at each epoch crossing.
func (r *run) driveBatched(src trace.BatchSource, readName string, m mmu.MMU, parent int32, warmup uint64,
	dynamic bool, reselect func(), st *schemeTimes, lt *layerTimes) (mmu.Stats, uint64, []mem.VPN) {
	tr := r.tr
	recs := make([]trace.Record, batchRecords)
	vpns := make([]mem.VPN, batchRecords)
	var instructions, sinceEpoch, warmInstr uint64
	var warmStats mmu.Stats
	warmLeft := warmup
	last := 0
	for {
		s := tr.begin(readName, parent)
		n := src.ReadBatch(recs)
		if d := tr.end(s); readName == "workload.read_batch" {
			lt.genRead += d
			lt.genRecs += uint64(n)
		}
		if n == 0 {
			break
		}
		last = n
		for i := 0; i < n; i++ {
			vpns[i] = recs[i].VPN
		}
		for start := 0; start < n; {
			end := n
			if warmLeft > 0 && uint64(end-start) > warmLeft {
				end = start + int(warmLeft)
			}
			var segInstrs uint64
			crossed := false
			if dynamic {
				budget := defaultEpoch - sinceEpoch
				for i := start; i < end; i++ {
					segInstrs += uint64(recs[i].Instrs)
					if segInstrs >= budget {
						end = i + 1
						crossed = true
						break
					}
				}
			} else {
				for i := start; i < end; i++ {
					segInstrs += uint64(recs[i].Instrs)
				}
			}
			s := tr.begin("mmu.translate_batch", parent)
			m.TranslateBatch(vpns[start:end])
			d := tr.end(s)
			lt.translate += d
			st.translate += d
			instructions += segInstrs
			if warmLeft > 0 {
				warmLeft -= uint64(end - start)
				if warmLeft == 0 {
					warmStats = m.Stats()
					warmInstr = instructions
				}
			}
			if crossed {
				sinceEpoch = 0
				reselect()
			} else {
				sinceEpoch += segInstrs
			}
			start = end
		}
	}
	return subStats(m.Stats(), warmStats), instructions - warmInstr, append([]mem.VPN(nil), vpns[:last]...)
}

// driveChurn mirrors sim.RunWithChurn: a per-record Translate loop that
// frees and remaps a random region every churnInterval instructions.
// Translate runs between two remaps are timed as one span.
func (r *run) driveChurn(c cell, spec workload.Spec, cl mem.ChunkList, proc *osmem.Process, m mmu.MMU, parent int32,
	reselect func(), st *schemeTimes, lt *layerTimes) (mmu.Stats, uint64, []mem.VPN) {
	tr := r.tr
	warmup := c.accesses / 10
	startVPN, endVPN := cl[0].StartVPN, cl[len(cl)-1].EndVPN()
	rd := tr.begin("workload.read_batch", parent)
	recs := trace.DrainSource(spec.NewGenerator(startVPN, c.footprintPages(spec), warmup+c.accesses, c.seed))
	lt.genRead += tr.end(rd)
	lt.genRecs += uint64(len(recs))
	rng := rand.New(rand.NewSource(c.seed ^ 0x636875726e)) // the library's "churn" stream
	freshPFN := mem.PFN(1) << freshPFNShift
	dynamic := proc.Policy().Anchors

	var instructions, sinceChurn, sinceEpoch, warmInstr uint64
	var warmStats mmu.Stats
	warmLeft := warmup
	seg := tr.begin("mmu.translate", parent)
	closeSeg := func() {
		d := tr.end(seg)
		lt.translate += d
		st.translate += d
	}
	for _, rec := range recs {
		m.Translate(rec.VPN)
		instructions += uint64(rec.Instrs)
		sinceChurn += uint64(rec.Instrs)
		sinceEpoch += uint64(rec.Instrs)
		if warmLeft > 0 {
			warmLeft--
			if warmLeft == 0 {
				warmStats = m.Stats()
				warmInstr = instructions
			}
		}
		churn := sinceChurn >= c.churnInterval
		reselectNow := dynamic && sinceEpoch >= defaultEpoch
		if !churn && !reselectNow {
			continue
		}
		closeSeg()
		if churn {
			sinceChurn = 0
			if span := uint64(endVPN - startVPN); span > c.churnPages {
				v := startVPN + mem.VPN(uint64(rng.Int63n(int64(span-c.churnPages))))
				s := tr.begin("osmem.remap", parent)
				before := proc.EntryShootdowns()
				proc.UnmapRange(v, c.churnPages)
				err := proc.AppendChunk(mem.Chunk{StartVPN: v, StartPFN: freshPFN, Pages: c.churnPages})
				d := tr.end(s)
				if err != nil {
					r.fail("%v: churn remap: %v", c, err)
				}
				lt.remap += d
				lt.churnRemap += d
				lt.remapOps++
				lt.remapShootdowns += proc.EntryShootdowns() - before
				freshPFN += mem.PFN(c.churnPages + 512)
			}
		}
		if reselectNow {
			sinceEpoch = 0
			reselect()
		}
		seg = tr.begin("mmu.translate", parent)
	}
	closeSeg()
	var last []mem.VPN
	for _, rec := range recs[max(0, len(recs)-batchRecords):] {
		last = append(last, rec.VPN)
	}
	return subStats(m.Stats(), warmStats), instructions - warmInstr, last
}

func subStats(a, b mmu.Stats) mmu.Stats {
	return mmu.Stats{Accesses: a.Accesses - b.Accesses, L1Hits: a.L1Hits - b.L1Hits,
		L2RegularHits: a.L2RegularHits - b.L2RegularHits, CoalescedHits: a.CoalescedHits - b.CoalescedHits,
		Walks: a.Walks - b.Walks, Faults: a.Faults - b.Faults, Cycles: a.Cycles - b.Cycles}
}

// checkTranslations holds a sample of the MMU's translations against the
// OS model's reference mapping.
func (r *run) checkTranslations(m mmu.MMU, proc *osmem.Process, vpns []mem.VPN, lt *layerTimes) {
	step := len(vpns)/checkedVPNs + 1
	for i := 0; i < len(vpns); i += step {
		v := vpns[i]
		want, ok := proc.Translate(v)
		got := m.Translate(v)
		lt.translateChecks++
		if ok != (got.Outcome != mmu.OutFault) || (ok && got.PFN != want) {
			lt.translateMismatch++
		}
	}
}

// probeLayers times one pass of each remaining layer's exported call on
// the cell's own state: a page walk per VPN of the last batch, a TLB
// insert and lookup per VPN at the L2 geometry, the distance selection
// on the live histogram, and one remap of remapPages pages.
func (r *run) probeLayers(proc *osmem.Process, hw mmu.Config, vpns []mem.VPN, parent int32, lt *layerTimes) {
	tr := r.tr
	pt := proc.PageTable()
	s := tr.begin("pagetable.walk", parent)
	for _, v := range vpns {
		pt.WalkFast(v)
	}
	lt.walk += tr.end(s)
	lt.walkOps += uint64(len(vpns))

	c := tlb.NewCache(hw.L2Entries/hw.L2Ways, hw.L2Ways)
	mask := c.SetMask()
	s = tr.begin("tlb.insert", parent)
	for _, v := range vpns {
		c.InsertNew(int(uint64(v)&mask), tlb.Key(tlb.Kind4K, uint64(v)), tlb.Entry{VPNBase: v, PFNBase: mem.PFN(v)})
	}
	lt.insert += tr.end(s)
	s = tr.begin("tlb.lookup", parent)
	for _, v := range vpns {
		c.Lookup(int(uint64(v)&mask), tlb.Key(tlb.Kind4K, uint64(v)))
	}
	lt.lookup += tr.end(s)
	lt.tlbOps += uint64(len(vpns))

	hist := proc.Histogram()
	s = tr.begin("core.select_distance", parent)
	core.SelectDistanceModel(hist, proc.Policy().Cost)
	lt.selectDist += tr.end(s)
	lt.selectCalls++

	if len(vpns) > 0 {
		v := vpns[0]
		before := proc.EntryShootdowns()
		s = tr.begin("osmem.remap", parent)
		proc.UnmapRange(v, remapPages)
		err := proc.AppendChunk(mem.Chunk{StartVPN: v, StartPFN: mem.PFN(1) << freshPFNShift, Pages: remapPages})
		lt.remap += tr.end(s)
		if err != nil {
			r.fail("probe remap: %v", err)
		}
		lt.remapOps++
		lt.remapShootdowns += proc.EntryShootdowns() - before
	}
}

// rebuildAll runs cells through rebuild on par workers in order, the way
// the sweep engine dispatches them, under one parent span. It returns
// the counts per cell and the sweep-level figures: wall time, the busy
// ratio (summed cell time over wall × par) and the tail from the first
// idle worker to the end.
func (r *run) rebuildAll(cells []cell, par int, parentName string) ([]counts, *layerTimes, sweepShape) {
	ps := r.tr.begin(parentName, 0)
	start := time.Now()
	out := make([]counts, len(cells))
	lts := make([]*layerTimes, par)
	idle := make([]time.Time, par)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		lts[w] = newLayerTimes()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				k, err := r.rebuild(cells[i], ps.id, lts[w])
				if err != nil {
					r.fail("traced %v: %v", cells[i], err)
				}
				out[i] = k
			}
			idle[w] = time.Now()
		}(w)
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	r.tr.end(ps)
	lt := newLayerTimes()
	for _, l := range lts {
		lt.merge(l)
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].Before(idle[j]) })
	shape := sweepShape{wall: wall, tail: idle[par-1].Sub(idle[0])}
	if wall > 0 {
		shape.busy = float64(lt.cellTime) / (float64(wall) * float64(par))
	}
	return out, lt, shape
}

type sweepShape struct {
	wall, tail time.Duration
	busy       float64
}
