package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// equivCfg builds a small config whose boundaries deliberately avoid
// batch alignment: warmup ends mid-batch (499 accesses) and the epoch
// period is short enough that dynamic re-selection fires many times per
// run, so any drift between the batched drive's segment slicing and the
// serial per-record checks shows up.
func equivCfg(t testing.TB, scheme mmu.Scheme, scenario mapping.Scenario, wl string) Config {
	spec, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Scheme:            scheme,
		Workload:          spec,
		Scenario:          scenario,
		FootprintPages:    1 << 12,
		Accesses:          4_999,
		Seed:              42,
		EpochInstructions: 1_500,
	}
}

// TestBatchedSerialEquivalence is the cross-product golden test: every
// scheme over every scenario must produce a byte-identical Result —
// Stats, AnchorActions, final anchor distance, everything — through the
// batched TranslateBatch pipeline and the record-at-a-time reference.
// A few configurations outside the cross product ride along: a pinned
// anchor distance (no re-selection epochs), the detailed walk model, and
// a trace shorter than one batch.
func TestBatchedSerialEquivalence(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, scheme := range mmu.All() {
		for _, scenario := range mapping.All() {
			variants = append(variants, variant{
				fmt.Sprintf("%s/%s", scheme, scenario),
				equivCfg(t, scheme, scenario, "mcf"),
			})
		}
	}
	fixed := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	fixed.FixedDistance = 8
	walk := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	walk.DetailedWalk = true
	tiny := equivCfg(t, mmu.Cluster, mapping.Low, "mcf")
	tiny.Accesses, tiny.WarmupAccesses = 40, 7
	variants = append(variants,
		variant{"anchor/medium/fixed-distance=8", fixed},
		variant{"anchor/medium/detailed-walk", walk},
		variant{"cluster/low/accesses=40,warmup=7", tiny},
	)

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			serial, err := run(v.cfg, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Run(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("batched result diverged from serial:\nserial:  %+v\nbatched: %+v", serial, batched)
			}
		})
	}
}

// TestBatchedSerialEquivalenceMultiRegion covers the per-region anchor
// distance extension, where DistanceAt varies across the footprint.
func TestBatchedSerialEquivalenceMultiRegion(t *testing.T) {
	for _, scenario := range mapping.All() {
		t.Run(scenario.String(), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, scenario, "mcf")
			cfg.MultiRegionAnchors = true
			serial, err := run(cfg, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("batched result diverged from serial:\nserial:  %+v\nbatched: %+v", serial, batched)
			}
		})
	}
}

// TestBatchedSerialEquivalenceReplay proves the replay path matches the
// serial replay record for record, from both trace formats: a varint
// trace.Reader and an HTLBTRB2 trace.Bin each feed the drive through
// their own native ReadBatch.
func TestBatchedSerialEquivalenceReplay(t *testing.T) {
	spec, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	// The trace is recorded over the replayed mapping's footprint, so
	// accesses hit, miss and walk instead of all faulting.
	recs := trace.Collect(spec.NewGenerator(mapping.DefaultBaseVPN, 1<<12, 6_000, 7), 0)
	var varintBuf, binBuf bytes.Buffer
	vw, err := trace.NewWriter(&varintBuf)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := trace.NewBinWriter(&binBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := vw.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name string
		open func() (trace.Source, func() error, error)
	}{
		{"varint", func() (trace.Source, func() error, error) {
			r, err := trace.NewReader(bytes.NewReader(varintBuf.Bytes()))
			if err != nil {
				return nil, nil, err
			}
			return r, r.Err, nil
		}},
		{"bin", func() (trace.Source, func() error, error) {
			b, err := trace.NewBin(binBuf.Bytes())
			return b, b.Close, err
		}},
	}

	for _, scheme := range []mmu.Scheme{mmu.Base, mmu.Anchor, mmu.CoLT} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := equivCfg(t, scheme, mapping.Medium, "gups")
			cfg.Accesses = 5_000 // replay bounds: warmup 500 + 5000 measured
			for _, f := range formats {
				t.Run(f.name, func(t *testing.T) {
					serialSrc, serialDone, err := f.open()
					if err != nil {
						t.Fatal(err)
					}
					serial, err := runTrace(cfg, serialSrc, driveSerial)
					if err != nil {
						t.Fatal(err)
					}
					batchedSrc, batchedDone, err := f.open()
					if err != nil {
						t.Fatal(err)
					}
					batched, err := RunTrace(cfg, batchedSrc)
					if err != nil {
						t.Fatal(err)
					}
					if err1, err2 := serialDone(), batchedDone(); err1 != nil || err2 != nil {
						t.Fatalf("source errors: serial %v, batched %v", err1, err2)
					}
					if !reflect.DeepEqual(serial, batched) {
						t.Errorf("replay diverged:\nserial:  %+v\nbatched: %+v", serial, batched)
					}
				})
			}
		})
	}
}

// TestReplayMatchesRun replays Run's own generated trace through
// RunTrace: both must set up the same cell, so the results must be
// identical, per-region anchor distances included.
func TestReplayMatchesRun(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, scheme := range []mmu.Scheme{mmu.Base, mmu.Anchor, mmu.CoLT, mmu.RMM} {
		variants = append(variants, variant{scheme.String(), equivCfg(t, scheme, mapping.Medium, "mcf")})
	}
	regions := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	regions.MultiRegionAnchors = true
	variants = append(variants, variant{"anchor/multi-region", regions})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			want, err := Run(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := v.cfg.withDefaults()
			gen := d.Workload.NewGenerator(mapping.DefaultBaseVPN, d.FootprintPages, d.WarmupAccesses+d.Accesses, d.Seed)
			got, err := RunTrace(v.cfg, trace.NewSliceSource(trace.Collect(gen, 0)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("replay of Run's trace diverged:\nRun:      %+v\nRunTrace: %+v", want, got)
			}
		})
	}
}

// TestProbeEquivalence pins the Probe hook to the same firing points on
// both drive paths: same epochs, same instruction counts, same stats
// snapshots, same anchor distances — and identical final results whether
// or not a probe is attached (observation must be free).
func TestProbeEquivalence(t *testing.T) {
	for _, scheme := range []mmu.Scheme{mmu.Anchor, mmu.Base} {
		t.Run(scheme.String(), func(t *testing.T) {
			base := equivCfg(t, scheme, mapping.Low, "mcf")

			plain, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}

			var serialSamples, batchedSamples []ProbeSample
			cfg := base
			cfg.Probe = func(s ProbeSample) { serialSamples = append(serialSamples, s) }
			serial, err := run(cfg, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Probe = func(s ProbeSample) { batchedSamples = append(batchedSamples, s) }
			batched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(serialSamples) == 0 {
				t.Fatal("probe never fired; epoch period too long for the test trace")
			}
			if !reflect.DeepEqual(serialSamples, batchedSamples) {
				t.Errorf("probe samples diverged:\nserial:  %+v\nbatched: %+v", serialSamples, batchedSamples)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("results with probe diverged:\nserial:  %+v\nbatched: %+v", serial, batched)
			}
			if !reflect.DeepEqual(plain, batched) {
				t.Errorf("attaching a probe changed the result:\nplain:  %+v\nprobed: %+v", plain, batched)
			}
		})
	}
}

// TestWarmupOnBatchBoundary exercises the corner where the warmup
// boundary lands exactly on a batch edge, where warmup exceeds one
// batch, and where warmup is as long as the measured run or 100 beyond
// it, all of which take different paths through the segment slicer.
func TestWarmupOnBatchBoundary(t *testing.T) {
	const measured = 3 * batchRecords
	for _, warm := range []uint64{batchRecords, batchRecords + 1, 2*batchRecords + 17, 1, measured, measured + 100} {
		t.Run(fmt.Sprintf("warm=%d", warm), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "gups")
			cfg.Accesses = measured
			cfg.WarmupAccesses = warm
			serial, err := run(cfg, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("warmup=%d diverged:\nserial:  %+v\nbatched: %+v", warm, serial, batched)
			}
		})
	}
}

// driveSerial is the original record-at-a-time loop, kept as the golden
// reference: the batched drive must produce byte-identical results.
func driveSerial(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, res *Result) {
	anchors := cfg.Scheme.Policy().Anchors
	dynamic := anchors && cfg.FixedDistance == 0
	var instructions, sinceEpoch uint64
	var warmLeft = cfg.WarmupAccesses
	var warmStats mmu.Stats
	var warmInstr uint64
	epoch := 0

	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		m.Translate(rec.VPN)
		instructions += uint64(rec.Instrs)
		sinceEpoch += uint64(rec.Instrs)

		if warmLeft > 0 {
			warmLeft--
			if warmLeft == 0 {
				warmStats = m.Stats()
				warmInstr = instructions
			}
		}
		if (dynamic || cfg.Probe != nil) && sinceEpoch >= cfg.EpochInstructions {
			sinceEpoch = 0
			if dynamic {
				proc.Reselect(cfg.SweepCost)
			}
			if cfg.Probe != nil {
				epoch++
				d := uint64(0)
				if anchors {
					d = proc.AnchorDistance()
				}
				cfg.Probe(ProbeSample{
					Epoch:          epoch,
					Instructions:   instructions,
					Stats:          m.Stats(),
					AnchorDistance: d,
				})
			}
		}
	}
	res.Stats = subStats(m.Stats(), warmStats)
	res.Instructions = instructions - warmInstr
}
