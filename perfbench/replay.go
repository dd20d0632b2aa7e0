package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

const (
	// replayAccesses crosses three 10M-instruction re-selection epochs
	// at mcf's 4 instructions per access.
	replayAccesses = 8_000_000
	// panelAccesses is the replay prefix the traced run pushes through
	// each scheme the workload does not run.
	panelAccesses = 200_000
	// shardAccesses is the replay prefix the shard-speedup probe runs.
	shardAccesses = 2_000_000
	// replayTraces is how many seeds' traces an untraced run replays in
	// turn.
	replayTraces = 3
)

func longReplay(r *run) error {
	c := cell{scheme: "anchor", bench: "mcf", scenario: "demand", pressure: 0.3, accesses: replayAccesses, seed: r.seed}
	// Input prep, excluded from every metric: record the config's
	// accesses in tracegen's default (varint) format, for the run's seed
	// and, untraced, for replayTraces-1 derived seeds the units cycle
	// through.
	traces := 1
	if !r.traced {
		traces = replayTraces
	}
	var replays []cell
	for k := 0; k < traces; k++ {
		rc := c
		rc.seed = derivedSeed(r.seed, k)
		rc.tracePath = filepath.Join(workDir, fmt.Sprintf("replay-seed%d.trc", rc.seed))
		if err := recordTrace(rc.tracePath, rc); err != nil {
			return fmt.Errorf("recording the replay trace: %w", err)
		}
		defer os.Remove(rc.tracePath)
		replays = append(replays, rc)
	}
	replay := replays[0]
	w := simWork{
		cells:      []cell{replay},
		unitCells:  func(k int) []cell { return []cell{replays[k%len(replays)]} },
		setups:     []cell{c},
		setupCells: reseeded([]cell{c}, r.seed),
		runUnit: func(cells []cell) ([]counts, error) {
			k, err := simulate(cells[0])
			return []counts{k}, err
		},
		// The replay must equal the same config run from the generator.
		reference:  func(cell) (counts, error) { return simulate(c) },
		sample:     []int{0},
		decodeCell: c,
		replayFile: replay.tracePath,
		shardCell:  &replay,
	}
	for _, s := range gridSchemes {
		if s != c.scheme {
			p := replay
			p.scheme, p.accesses = s, panelAccesses
			w.panel = append(w.panel, p)
		}
	}
	return r.runSim(w)
}

// recordTrace writes a cell's generated accesses, warmup included, as a
// varint trace file.
func recordTrace(path string, c cell) error {
	gen, err := cellGenerator(c)
	if err != nil {
		return err
	}
	_, err = writeRecords(path, gen, false)
	return err
}

// cellGenerator streams a cell's whole access stream, warmup included.
func cellGenerator(c cell) (trace.Source, error) {
	spec, err := workload.ByName(c.bench)
	if err != nil {
		return nil, err
	}
	sc, err := mapping.ParseScenario(c.scenario)
	if err != nil {
		return nil, err
	}
	// The generator's base is the mapping's first page, as in the
	// simulator.
	footprint := c.footprintPages(spec)
	cl, err := mapping.Generate(sc, mapping.Config{FootprintPages: footprint, Seed: c.seed,
		Pressure: c.pressure, FineGrained: spec.FineGrainedAlloc})
	if err != nil {
		return nil, err
	}
	return spec.NewGenerator(cl[0].StartVPN, footprint, c.simulated(), c.seed), nil
}

type recordWriter interface{ Write(trace.Record) error }

// writeRecords streams src into a trace file, varint or binary, and
// returns the record count.
func writeRecords(path string, src trace.Source, bin bool) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var w recordWriter
	var finish func() error
	var buf *bufio.Writer
	if bin {
		bw, err := trace.NewBinWriter(f)
		if err != nil {
			f.Close()
			return 0, err
		}
		w, finish = bw, bw.Close
	} else {
		buf = bufio.NewWriter(f)
		vw, err := trace.NewWriter(buf)
		if err != nil {
			f.Close()
			return 0, err
		}
		w, finish = vw, func() error {
			if err := vw.Flush(); err != nil {
				return err
			}
			return buf.Flush()
		}
	}
	var n uint64
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			f.Close()
			return 0, err
		}
		n++
	}
	if err := finish(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// decodeProbe times ReadBatch over the same records in both trace
// formats: the varint stream through Reader and the fixed-width binary
// format through OpenBin.
func (r *run) decodeProbe(w simWork) error {
	varint := w.replayFile
	if varint == "" {
		varint = filepath.Join(workDir, fmt.Sprintf("decode-seed%d.trc", r.seed))
		if err := recordTrace(varint, w.decodeCell); err != nil {
			return err
		}
		defer os.Remove(varint)
	}
	// The binary copy holds the same records, read back from the
	// varint file.
	vsrc, closeV, err := trace.OpenPath(varint)
	if err != nil {
		return err
	}
	bin := filepath.Join(workDir, fmt.Sprintf("decode-seed%d.bin", r.seed))
	total, err := writeRecords(bin, vsrc, true)
	closeV()
	if err != nil {
		return err
	}
	defer os.Remove(bin)

	buf := make([]trace.Record, batchRecords)
	timeDecode := func(name string, src trace.BatchSource) (float64, uint64) {
		s := r.tr.begin(name, 0)
		var n uint64
		for {
			k := src.ReadBatch(buf)
			if k == 0 {
				break
			}
			n += uint64(k)
		}
		d := r.tr.end(s)
		return float64(d) / float64(max(n, 1)), n
	}
	f, err := os.Open(varint)
	if err != nil {
		return err
	}
	defer f.Close()
	vr, err := trace.NewReader(bufio.NewReader(f))
	if err != nil {
		return err
	}
	vns, vn := timeDecode("trace.varint_read_batch", vr)
	r.check(vr.Err() == nil && vn == total, "varint decode: %d of %d records, err %v", vn, total, vr.Err())
	b, err := trace.OpenBin(bin)
	if err != nil {
		return err
	}
	defer b.Close()
	bns, bn := timeDecode("trace.bin_read_batch", b)
	r.check(bn == total, "bin decode: %d of %d records", bn, total)
	r.set("trace.varint.ns_per_record", "ns", vns)
	r.set("trace.bin.ns_per_record", "ns", bns)
	return nil
}

// shardSpeedup runs a replay prefix through sim.RunTrace serially and
// with Shards = nproc; the results must be identical.
func (r *run) shardSpeedup(c cell) (float64, error) {
	spec, err := workload.ByName(c.bench)
	if err != nil {
		return 0, err
	}
	scheme, err := mmu.ParseScheme(c.scheme)
	if err != nil {
		return 0, err
	}
	sc, err := mapping.ParseScenario(c.scenario)
	if err != nil {
		return 0, err
	}
	cfg := sim.Config{Scheme: scheme, Workload: spec, Scenario: sc, Accesses: shardAccesses, Seed: c.seed,
		Pressure: c.pressure, FootprintPages: c.footprint}
	once := func(shards int) (sim.Result, time.Duration, error) {
		src, closeSrc, err := trace.OpenPath(c.tracePath)
		if err != nil {
			return sim.Result{}, 0, err
		}
		defer closeSrc()
		cfg.Shards = shards
		s := r.tr.begin(fmt.Sprintf("sim.run_trace_shards%d", shards), 0)
		res, err := sim.RunTrace(cfg, src)
		return res, r.tr.end(s), err
	}
	serial, ds, err := once(0)
	if err != nil {
		return 0, err
	}
	sharded, dp, err := once(r.nproc)
	if err != nil {
		return 0, err
	}
	r.check(fromSim(serial) == fromSim(sharded), "sharded replay %+v differs from serial %+v", fromSim(sharded), fromSim(serial))
	return float64(ds) / float64(dp), nil
}
