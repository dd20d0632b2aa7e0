package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// Config.Shards is accepted for compatibility and has no effect. The
// tests in this file hold that promise over the configurations callers
// set it with: a run with Shards set must reproduce the serial reference
// byte for byte — Stats, AnchorActions, final anchor distance, OS
// counters and probe samples.

// checkShardsIgnored runs cfg through the serial reference and, with
// Shards set to shards, through Run, and fails if the results differ.
func checkShardsIgnored(t *testing.T, cfg Config, shards int) {
	t.Helper()
	serial, err := run(cfg, driveSerial)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = shards
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, got) {
		t.Errorf("Shards=%d changed the result:\nserial: %+v\ngot:    %+v", shards, serial, got)
	}
}

// TestShardSerialEquivalence sets Shards over every scheme and scenario.
func TestShardSerialEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for _, scheme := range mmu.All() {
			for _, scenario := range mapping.All() {
				t.Run(fmt.Sprintf("k%d/%s/%s", shards, scheme, scenario), func(t *testing.T) {
					checkShardsIgnored(t, equivCfg(t, scheme, scenario, "mcf"), shards)
				})
			}
		}
	}
}

// TestShardSerialEquivalenceMultiRegion sets Shards with per-region
// anchor distances.
func TestShardSerialEquivalenceMultiRegion(t *testing.T) {
	for _, scenario := range mapping.All() {
		t.Run(scenario.String(), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, scenario, "mcf")
			cfg.MultiRegionAnchors = true
			checkShardsIgnored(t, cfg, 4)
		})
	}
}

// TestShardFixedDistance sets Shards with a pinned anchor distance.
func TestShardFixedDistance(t *testing.T) {
	cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	cfg.FixedDistance = 8
	checkShardsIgnored(t, cfg, 4)
}

// TestShardProbeEquivalence sets Shards with a probe attached: the
// samples and the result must match the serial reference, and the
// result must match the same run without a probe.
func TestShardProbeEquivalence(t *testing.T) {
	for _, scheme := range []mmu.Scheme{mmu.Anchor, mmu.Base} {
		t.Run(scheme.String(), func(t *testing.T) {
			base := equivCfg(t, scheme, mapping.Low, "mcf")
			base.Shards = 4

			plain, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}

			var serialSamples, shardedSamples []ProbeSample
			cfg := base
			cfg.Shards = 0
			cfg.Probe = func(s ProbeSample) { serialSamples = append(serialSamples, s) }
			serial, err := run(cfg, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			cfg.Probe = func(s ProbeSample) { shardedSamples = append(shardedSamples, s) }
			sharded, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(serialSamples) == 0 {
				t.Fatal("probe never fired; epoch period too long for the test trace")
			}
			if !reflect.DeepEqual(serialSamples, shardedSamples) {
				t.Errorf("probe samples diverged:\nserial:  %+v\nsharded: %+v", serialSamples, shardedSamples)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("results with probe diverged:\nserial:  %+v\nsharded: %+v", serial, sharded)
			}
			if !reflect.DeepEqual(plain, sharded) {
				t.Errorf("attaching a probe changed the result:\nplain:  %+v\nprobed: %+v", plain, sharded)
			}
		})
	}
}

// TestShardWarmupEdges sets Shards with warmup ending mid-batch, on a
// batch edge, as long as the measured run, and 100 beyond it.
func TestShardWarmupEdges(t *testing.T) {
	total := uint64(3 * batchRecords)
	for _, warm := range []uint64{1, batchRecords, batchRecords + 1, 2*batchRecords + 17, total, total + 100} {
		t.Run(fmt.Sprintf("warm=%d", warm), func(t *testing.T) {
			cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "gups")
			cfg.Accesses = total
			cfg.WarmupAccesses = warm
			checkShardsIgnored(t, cfg, 4)
		})
	}
}

// TestShardReplayBinTrace sets Shards on a replay of an HTLBTRB2 trace.
func TestShardReplayBinTrace(t *testing.T) {
	spec, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewBinWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range trace.Collect(spec.NewGenerator(mapping.DefaultBaseVPN, 1<<12, 6_000, 7), 0) {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, scheme := range []mmu.Scheme{mmu.Base, mmu.Anchor, mmu.CoLT} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := equivCfg(t, scheme, mapping.Medium, "gups")
			cfg.Accesses = 5_000

			serialB, err := trace.NewBin(encoded)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := runTrace(cfg, serialB, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			shardedB, err := trace.NewBin(encoded)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			sharded, err := RunTrace(cfg, shardedB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("bin replay diverged:\nserial:  %+v\nsharded: %+v", serial, sharded)
			}
		})
	}
}

// TestShardFallbacks sets Shards with the detailed walk model and with
// more shards than a tiny trace has records.
func TestShardFallbacks(t *testing.T) {
	t.Run("detailed-walk", func(t *testing.T) {
		cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
		cfg.DetailedWalk = true
		checkShardsIgnored(t, cfg, 4)
	})
	t.Run("tiny-trace", func(t *testing.T) {
		cfg := equivCfg(t, mmu.Cluster, mapping.Low, "mcf")
		cfg.Accesses = 40
		cfg.WarmupAccesses = 7
		checkShardsIgnored(t, cfg, 64)
	})
}
