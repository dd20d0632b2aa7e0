package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/trace"
)

func churnCfg(t *testing.T, scheme mmu.Scheme, interval, pages uint64) ChurnConfig {
	t.Helper()
	return ChurnConfig{
		Config:                    smallCfg(scheme, "canneal", mapping.Medium),
		ChurnIntervalInstructions: interval,
		ChurnPages:                pages,
	}
}

func TestRunWithChurnBasic(t *testing.T) {
	cfg := churnCfg(t, mmu.Anchor, 20_000, 64)
	cfg.Accesses = 100_000
	res, stats, err := RunWithChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Operations == 0 {
		t.Fatal("no churn operations fired")
	}
	if stats.PagesRemapped != stats.Operations*64 {
		t.Errorf("pages remapped = %d for %d ops", stats.PagesRemapped, stats.Operations)
	}
	if stats.EntryShootdowns == 0 {
		t.Error("churn produced no shootdowns")
	}
	// The workload only touches VAs that stay mapped throughout, so no
	// faults even though the physical side changes underneath.
	if res.Stats.Faults != 0 {
		t.Errorf("churn caused %d faults", res.Stats.Faults)
	}

	// RunWithChurn honours every field Run does. With an interval longer
	// than the run no remap fires, so it must reproduce Run exactly: the
	// detailed walk model, per-region anchors, the probe's samples and
	// the Table 2 action counts included.
	for _, in := range []struct {
		name string
		set  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"detailed-walk", func(c *Config) { c.DetailedWalk = true }},
		{"multi-region", func(c *Config) { c.MultiRegionAnchors = true }},
	} {
		t.Run(in.name, func(t *testing.T) {
			quiet := churnCfg(t, mmu.Anchor, math.MaxUint64, 64)
			quiet.Accesses = 20_000
			quiet.EpochInstructions = 50_000
			in.set(&quiet.Config)
			var runSamples, churnSamples []ProbeSample
			plain := quiet.Config
			plain.Probe = func(s ProbeSample) { runSamples = append(runSamples, s) }
			want, err := Run(plain)
			if err != nil {
				t.Fatal(err)
			}
			quiet.Probe = func(s ProbeSample) { churnSamples = append(churnSamples, s) }
			got, stats, err := RunWithChurn(quiet)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Operations != 0 {
				t.Fatalf("%d churn operations fired", stats.Operations)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("quiet churn run differs from Run:\nRun:   %+v\nchurn: %+v", want, got)
			}
			if len(churnSamples) == 0 || !reflect.DeepEqual(runSamples, churnSamples) {
				t.Errorf("probe samples: Run %d, churn %d (or they differ)", len(runSamples), len(churnSamples))
			}
			if len(got.AnchorActions) == 0 {
				t.Error("no anchor actions reported")
			}
		})
	}
}

// TestChurnCostsMisses: remapping invalidates cached translations, so a
// churned run misses more than an identical calm run.
func TestChurnCostsMisses(t *testing.T) {
	calmCfg := smallCfg(mmu.Anchor, "canneal", mapping.Medium)
	calmCfg.Accesses = 100_000
	calm, err := Run(calmCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnCfg(t, mmu.Anchor, 5_000, 256)
	cfg.Accesses = 100_000
	churned, _, err := RunWithChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if churned.Stats.Misses() <= calm.Stats.Misses() {
		t.Errorf("churned misses %d <= calm %d", churned.Stats.Misses(), calm.Stats.Misses())
	}
}

// TestChurnAllSchemes: every scheme stays correct under live remapping.
func TestChurnAllSchemes(t *testing.T) {
	for _, s := range mmu.All() {
		cfg := churnCfg(t, s, 25_000, 32)
		cfg.Accesses = 40_000
		res, _, err := RunWithChurn(cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Stats.Faults != 0 {
			t.Errorf("%v: %d faults under churn", s, res.Stats.Faults)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	cfg := churnCfg(t, mmu.Base, 0, 64)
	if _, _, err := RunWithChurn(cfg); err == nil {
		t.Error("zero interval accepted")
	}
	cfg = churnCfg(t, mmu.Base, 1000, 0)
	if _, _, err := RunWithChurn(cfg); err == nil {
		t.Error("zero churn size accepted")
	}
}

// churnCase is one churn equivalence input: the config under churn and
// the interval and region size of its remaps.
type churnCase struct {
	name string
	cfg  ChurnConfig
}

// prefixInstrs returns the instructions of the first n records of cfg's
// trace, so a test can put a churn crossing on a chosen record.
func prefixInstrs(t *testing.T, cfg Config, n int) uint64 {
	t.Helper()
	cfg = cfg.withDefaults()
	c, err := newCell(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(c.generator(cfg.WarmupAccesses+cfg.Accesses), uint64(n))
	if len(recs) < n {
		t.Fatalf("trace has %d records, want at least %d", len(recs), n)
	}
	var sum uint64
	for _, r := range recs {
		sum += uint64(r.Instrs)
	}
	return sum
}

// TestChurnBatchedEquivalence holds RunWithChurn, which remaps as an
// interval action on the batched drive, byte-identical to the
// record-at-a-time churn loop it replaced: results and OS work alike.
// Besides every scheme at a dynamic and a pinned distance, it puts a
// churn crossing on the same record as every epoch crossing, on the
// warmup boundary, and on each side of the 4096-record batch edge.
func TestChurnBatchedEquivalence(t *testing.T) {
	churn := func(cfg Config, interval uint64) ChurnConfig {
		return ChurnConfig{Config: cfg, ChurnIntervalInstructions: interval, ChurnPages: 32}
	}
	var cases []churnCase
	for _, s := range mmu.All() {
		cfg := equivCfg(t, s, mapping.Medium, "mcf")
		cases = append(cases, churnCase{s.String() + "/dynamic", churn(cfg, 2_500)})
		cfg.FixedDistance = 8
		cases = append(cases, churnCase{s.String() + "/fixed-distance=8", churn(cfg, 2_500)})
	}
	// Both counters start at zero and reset on crossing, so an interval
	// equal to the epoch period crosses on the epoch's record every time.
	sameRecord := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	cases = append(cases, churnCase{"anchor/churn-on-epoch-record", churn(sameRecord, sameRecord.EpochInstructions)})

	warm := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	warm.WarmupAccesses = 1_000
	cases = append(cases, churnCase{"anchor/churn-on-warmup-boundary", churn(warm, prefixInstrs(t, warm, 1_000))})

	edge := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	edge.Accesses = 3 * batchRecords
	for _, n := range []int{batchRecords - 1, batchRecords, batchRecords + 1} {
		cases = append(cases, churnCase{fmt.Sprintf("anchor/churn-at-record-%d", n), churn(edge, prefixInstrs(t, edge, n))})
	}
	walk := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	walk.DetailedWalk = true
	regions := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	regions.MultiRegionAnchors = true
	cases = append(cases,
		churnCase{"anchor/detailed-walk", churn(walk, 2_500)},
		churnCase{"anchor/multi-region", churn(regions, 2_500)},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantRes, wantStats, err := runWithChurnSerial(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, gotStats, err := RunWithChurn(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wantStats.Operations == 0 {
				t.Fatal("no churn operation fired")
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Errorf("result diverged:\nserial:  %+v\nbatched: %+v", wantRes, gotRes)
			}
			if wantStats != gotStats {
				t.Errorf("churn stats diverged:\nserial:  %+v\nbatched: %+v", wantStats, gotStats)
			}
		})
	}
}

// runWithChurnSerial is the record-at-a-time churn loop RunWithChurn ran
// before churn became an interval action on the batched drive, kept as
// the golden reference. It sets up and reports through the same cell.
func runWithChurnSerial(cfg ChurnConfig) (Result, ChurnStats, error) {
	base := cfg.Config.withDefaults()
	c, err := newCell(base, nil)
	if err != nil {
		return Result{}, ChurnStats{}, err
	}
	proc, m := c.proc, c.m
	startVPN, endVPN := c.mp.startVPN, c.mp.endVPN
	gen := c.generator(base.WarmupAccesses + base.Accesses)
	r := rand.New(rand.NewSource(base.Seed ^ 0x636875726e))
	freshPFN := mem.PFN(1) << 38

	var stats ChurnStats
	var instructions, sinceChurn, sinceEpoch uint64
	warmLeft := base.WarmupAccesses
	var warmStats mmu.Stats
	var warmInstr uint64
	dynamic := proc.Policy().Anchors && base.FixedDistance == 0

	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
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
		if sinceChurn >= cfg.ChurnIntervalInstructions {
			sinceChurn = 0
			span := uint64(endVPN - startVPN)
			if span > cfg.ChurnPages {
				v := startVPN + mem.VPN(uint64(r.Int63n(int64(span-cfg.ChurnPages))))
				proc.UnmapRange(v, cfg.ChurnPages)
				if err := proc.AppendChunk(mem.Chunk{StartVPN: v, StartPFN: freshPFN, Pages: cfg.ChurnPages}); err != nil {
					return Result{}, ChurnStats{}, fmt.Errorf("sim: churn remap: %w", err)
				}
				freshPFN += mem.PFN(cfg.ChurnPages + 512)
				stats.Operations++
				stats.PagesRemapped += cfg.ChurnPages
			}
		}
		if dynamic && sinceEpoch >= base.EpochInstructions {
			sinceEpoch = 0
			proc.Reselect(base.SweepCost)
		}
	}
	c.res.Stats = subStats(m.Stats(), warmStats)
	c.res.Instructions = instructions - warmInstr

	stats.EntryShootdowns = proc.EntryShootdowns()
	stats.FullFlushes = proc.FullFlushes()
	stats.DistanceChanges = proc.DistanceChanges()
	return c.result(), stats, nil
}
