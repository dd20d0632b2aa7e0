package mmu

import (
	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
)

// coltfaMMU implements CoLT's fully associative mode: beside the regular
// 4 KiB L2 sits a small fully associative array whose entries each map an
// arbitrarily long (capped) contiguous run, discovered by extending the
// walked translation through the page table in both directions. The full
// associativity is what caps the entry count (Table 3-era designs used
// 8-32 entries).
type coltfaMMU struct {
	cfg   Config
	proc  *osmem.Process
	l1    l1
	l2    *tlb.Cache
	runs  *tlb.RangeTLB
	stats Stats
}

func newCoLTFA(cfg Config, proc *osmem.Process) *coltfaMMU {
	return &coltfaMMU{
		cfg:  cfg,
		proc: proc,
		l1:   newL1(cfg),
		l2:   tlb.NewCache(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways),
		runs: tlb.NewRangeTLB(cfg.CoLTFAEntries),
	}
}

func (m *coltfaMMU) Scheme() Scheme { return CoLTFA }
func (m *coltfaMMU) Stats() Stats   { return m.stats }

func (m *coltfaMMU) Flush() {
	m.l1.flush()
	m.l2.Flush()
	m.runs.Flush()
}

// Invalidate implements the single-entry shootdown.
func (m *coltfaMMU) Invalidate(vpn mem.VPN) {
	m.l1.invalidate(vpn)
	invalidateL2Regular(m.l2, vpn)
	m.runs.InvalidateContaining(vpn)
}

// discoverRun extends the walked page in both directions while the 4 KiB
// mappings stay physically contiguous, up to the configured cap. The
// hardware performs this from PTE cache lines fetched during and after
// the walk; the simulator likewise reads the leaf table page
// (pagetable.ScanRun).
func (m *coltfaMMU) discoverRun(vpn mem.VPN, pfn mem.PFN) tlb.RangeEntry {
	start, startPFN, pages := m.proc.PageTable().ScanRun(vpn, pfn, m.cfg.CoLTFAMaxPages)
	return tlb.RangeEntry{StartVPN: start, StartPFN: startPFN, Pages: pages}
}

func (m *coltfaMMU) Translate(vpn mem.VPN) AccessResult {
	m.stats.Accesses++
	if pfn, ok := m.l1.lookup(vpn); ok {
		m.stats.L1Hits++
		return AccessResult{PFN: pfn, Outcome: OutL1Hit}
	}
	set := int(uint64(vpn) & m.l2.SetMask())
	if e, ok := m.l2.Lookup(set, tlb.Key(tlb.Kind4K, uint64(vpn))); ok {
		m.stats.L2RegularHits++
		m.stats.Cycles += m.cfg.L2HitCycles
		m.l1.fill(vpn, e.PFNBase, mem.Class4K)
		return AccessResult{PFN: e.PFNBase, Cycles: m.cfg.L2HitCycles, Outcome: OutL2Hit}
	}
	if r, ok := m.runs.Lookup(vpn); ok {
		pfn := r.Translate(vpn)
		m.stats.CoalescedHits++
		m.stats.Cycles += m.cfg.CoalescedHitCycles
		m.l1.fill(vpn, pfn, mem.Class4K)
		return AccessResult{PFN: pfn, Cycles: m.cfg.CoalescedHitCycles, Outcome: OutCoalescedHit}
	}

	w, walkCost := walkTimed(m.proc, vpn, &m.cfg)
	m.stats.Cycles += walkCost
	if !w.present {
		m.stats.Faults++
		return AccessResult{Cycles: walkCost, Outcome: OutFault}
	}
	m.stats.Walks++
	if w.class == mem.Class4K {
		if run := m.discoverRun(vpn, w.pfn); run.Pages > 1 {
			m.runs.Insert(run)
		} else {
			fillL2(m.l2, vpn, w)
		}
	}
	m.l1.fill(vpn, w.pfn, w.class)
	return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
}
