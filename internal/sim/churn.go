package sim

import (
	"fmt"
	"math/rand"

	"hybridtlb/internal/mem"
)

// This file simulates mapping churn: the process frees and reallocates
// parts of its footprint while running, as Section 3.3 ("Updating Memory
// Mapping") and Section 4 ("memory mappings can change even during the
// execution") describe. Every churn operation unmaps a region and remaps
// it to fresh frames, which forces the OS to rewrite the affected anchor
// entries and shoot stale TLB entries down — all while the workload keeps
// translating.

// ChurnConfig extends a simulation with periodic remapping.
type ChurnConfig struct {
	Config
	// ChurnIntervalInstructions is how often a churn operation fires.
	ChurnIntervalInstructions uint64
	// ChurnPages is the size of each remapped region.
	ChurnPages uint64
}

// ChurnStats reports the OS work the churn caused.
type ChurnStats struct {
	Operations      uint64
	PagesRemapped   uint64
	EntryShootdowns uint64
	FullFlushes     uint64
	DistanceChanges uint64
}

// RunWithChurn drives the workload while periodically remapping regions
// of the footprint: every ChurnIntervalInstructions the batched drive
// stops after the crossing record and remaps one region. Remapped regions
// keep their virtual addresses (a free immediately followed by an
// allocation reusing them), so the workload never faults; only the
// physical side and the affected anchors change.
func RunWithChurn(cfg ChurnConfig) (Result, ChurnStats, error) {
	base := cfg.Config.withDefaults()
	if cfg.ChurnIntervalInstructions == 0 || cfg.ChurnPages == 0 {
		return Result{}, ChurnStats{}, fmt.Errorf("sim: churn interval and size must be positive")
	}
	c, err := newCell(base)
	if err != nil {
		return Result{}, ChurnStats{}, err
	}
	// Each remap frees a random region and reallocates it at the same
	// VAs from fresh frames above everything the mapping generator used,
	// within the architectural 40-bit PFN field.
	r := rand.New(rand.NewSource(base.Seed ^ 0x636875726e)) // "churn"
	freshPFN := mem.PFN(1) << 38
	startVPN, endVPN := c.cl[0].StartVPN, c.cl[len(c.cl)-1].EndVPN()
	var stats ChurnStats
	d := newDrive(c.m, c.proc, c.generator(base.WarmupAccesses+base.Accesses), c.cfg)
	d.interval = cfg.ChurnIntervalInstructions
	d.action = func() error {
		span := uint64(endVPN - startVPN)
		if span <= cfg.ChurnPages {
			return nil
		}
		v := startVPN + mem.VPN(uint64(r.Int63n(int64(span-cfg.ChurnPages))))
		c.proc.UnmapRange(v, cfg.ChurnPages)
		if err := c.proc.AppendChunk(mem.Chunk{StartVPN: v, StartPFN: freshPFN, Pages: cfg.ChurnPages}); err != nil {
			return fmt.Errorf("sim: churn remap: %w", err)
		}
		freshPFN += mem.PFN(cfg.ChurnPages + 512)
		stats.Operations++
		stats.PagesRemapped += cfg.ChurnPages
		return nil
	}
	if _, err := d.run(0); err != nil {
		return Result{}, ChurnStats{}, err
	}
	d.finish(&c.res)

	stats.EntryShootdowns = c.proc.EntryShootdowns()
	stats.FullFlushes = c.proc.FullFlushes()
	stats.DistanceChanges = c.proc.DistanceChanges()
	return c.result(), stats, nil
}
