package mmu

import (
	"math/rand"
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/pagetable"
)

func TestSchemeNamesRoundTrip(t *testing.T) {
	for _, s := range All() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("round trip of %v failed", s)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme parsed")
	}
}

func TestSchemePolicies(t *testing.T) {
	cases := []struct {
		s   Scheme
		pol osmem.Policy
	}{
		{Base, osmem.Policy{}},
		{THP, osmem.Policy{THP: true}},
		{Cluster, osmem.Policy{}},
		{Cluster2M, osmem.Policy{THP: true}},
		{RMM, osmem.Policy{THP: true}},
		{Anchor, osmem.Policy{THP: true, Anchors: true}},
		{CoLT, osmem.Policy{}},
	}
	for _, c := range cases {
		if got := c.s.Policy(); got != c.pol {
			t.Errorf("%v policy = %+v, want %+v", c.s, got, c.pol)
		}
	}
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1Entries4K != 64 || cfg.L1Entries2M != 32 {
		t.Error("L1 geometry wrong")
	}
	if cfg.L2Entries != 1024 || cfg.L2Ways != 8 {
		t.Error("L2 geometry wrong")
	}
	if cfg.ClusterRegularEntries != 768 || cfg.ClusterEntries != 320 {
		t.Error("cluster geometry wrong")
	}
	if cfg.RangeEntries != 32 {
		t.Error("range TLB size wrong")
	}
	if cfg.L2HitCycles != 7 || cfg.CoalescedHitCycles != 8 || cfg.WalkCycles != 50 {
		t.Error("latencies wrong")
	}
}

// buildProc installs a chunk list for a scheme and returns its MMU.
func buildProc(t *testing.T, s Scheme, cl mem.ChunkList, fixedDist uint64) (*osmem.Process, MMU) {
	t.Helper()
	proc := osmem.NewProcess(s.Policy())
	if err := proc.InstallChunks(cl, fixedDist); err != nil {
		t.Fatal(err)
	}
	return proc, New(s, DefaultConfig(), proc)
}

func randomChunks(r *rand.Rand, n int, maxPages uint64) mem.ChunkList {
	var cl mem.ChunkList
	vpn := mem.VPN(0x10000)
	pfn := mem.PFN(1 << 22)
	for i := 0; i < n; i++ {
		pages := uint64(1 + r.Intn(int(maxPages)))
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
		vpn += mem.VPN(pages)
		pfn += mem.PFN(pages + uint64(512*(1+r.Intn(4))))
	}
	return cl
}

// TestTranslationCorrectnessAllSchemes is the central property test: every
// scheme must produce exactly the reference translation for every mapped
// VPN, across random mappings and access orders, mapped or not in TLBs.
func TestTranslationCorrectnessAllSchemes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, s := range All() {
		for trial := 0; trial < 4; trial++ {
			cl := randomChunks(r, 12, 3000)
			proc, m := buildProc(t, s, cl, 0)
			lo := cl[0].StartVPN
			hi := cl[len(cl)-1].EndVPN()
			for i := 0; i < 30000; i++ {
				vpn := lo + mem.VPN(r.Int63n(int64(hi-lo)))
				res := m.Translate(vpn)
				want, mapped := proc.Translate(vpn)
				if mapped {
					if res.Outcome == OutFault {
						t.Fatalf("%v trial %d: fault on mapped VPN %#x", s, trial, uint64(vpn))
					}
					if res.PFN != want {
						t.Fatalf("%v trial %d: translate(%#x) = %#x, want %#x (outcome %v)",
							s, trial, uint64(vpn), uint64(res.PFN), uint64(want), res.Outcome)
					}
				} else if res.Outcome != OutFault {
					t.Fatalf("%v trial %d: unmapped VPN %#x returned %v", s, trial, uint64(vpn), res.Outcome)
				}
			}
			st := m.Stats()
			if st.Accesses != 30000 {
				t.Fatalf("%v: accesses = %d", s, st.Accesses)
			}
			if st.L1Hits+st.L2RegularHits+st.CoalescedHits+st.Walks+st.Faults != st.Accesses {
				t.Fatalf("%v: outcome counters do not sum: %+v", s, st)
			}
		}
	}
}

func TestHitLatencyLadder(t *testing.T) {
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 64}}
	for _, s := range All() {
		_, m := buildProc(t, s, cl, 0)
		cfg := DefaultConfig()
		// Cold: walk.
		res := m.Translate(0x10000)
		if res.Outcome != OutWalk || res.Cycles != cfg.WalkCycles {
			t.Errorf("%v cold access = %+v", s, res)
		}
		// Immediately warm: L1.
		res = m.Translate(0x10000)
		if res.Outcome != OutL1Hit || res.Cycles != 0 {
			t.Errorf("%v warm access = %+v", s, res)
		}
	}
}

func TestStandardL2HitAfterL1Eviction(t *testing.T) {
	cl := mem.ChunkList{{StartVPN: 0, StartPFN: 1 << 22, Pages: 4096}}
	_, m := buildProc(t, Base, cl, 0)
	m.Translate(0)
	// Evict VPN 0 from the 16-set 4-way L1 by touching 8 conflicting pages.
	for i := mem.VPN(16); i <= 16*8; i += 16 {
		m.Translate(i)
	}
	res := m.Translate(0)
	if res.Outcome != OutL2Hit || res.Cycles != 7 {
		t.Errorf("expected 7-cycle L2 hit, got %+v", res)
	}
}

func TestAnchorHitFlow(t *testing.T) {
	// One big aligned chunk, pinned distance 16; accesses to distinct
	// pages inside one anchor unit must be served by the anchor entry
	// after the first walk.
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 1024}}
	proc, m := buildProc(t, Anchor, cl, 16)
	if proc.AnchorDistance() != 16 {
		t.Fatal("distance not pinned")
	}
	am := m.(*anchorMMU)

	res := m.Translate(0x10000) // cold: walk, fills anchor (covered)
	if res.Outcome != OutWalk {
		t.Fatalf("first access = %+v", res)
	}
	if am.Actions()[core.ActionWalkFillAnchor] != 1 {
		t.Fatalf("walk did not fill anchor: %v", am.Actions())
	}
	res = m.Translate(0x10005) // same anchor unit, different page: anchor hit
	if res.Outcome != OutCoalescedHit || res.Cycles != 8 {
		t.Fatalf("anchor-unit access = %+v", res)
	}
	if res.PFN != mem.PFN(1<<22)+5 {
		t.Fatalf("anchor translation wrong: %#x", uint64(res.PFN))
	}
	if am.Actions()[core.ActionAnchorHit] != 1 {
		t.Fatalf("anchor hit not classified: %v", am.Actions())
	}
	// A page in a *different* anchor unit misses the anchor probe and
	// walks, then filling its own anchor.
	res = m.Translate(0x10000 + 16)
	if res.Outcome != OutWalk {
		t.Fatalf("next unit = %+v", res)
	}
	if am.Actions()[core.ActionWalkFillAnchor] != 2 {
		t.Fatalf("second anchor not filled: %v", am.Actions())
	}
}

func TestAnchorContiguityMissFillsRegular(t *testing.T) {
	// Two chunks split mid-unit: VPNs past the first chunk's end are not
	// covered by its anchor (contiguity stops at the chunk boundary).
	cl := mem.ChunkList{
		{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 10},
		{StartVPN: 0x1000A, StartPFN: 2 << 22, Pages: 100},
	}
	proc, m := buildProc(t, Anchor, cl, 16)
	am := m.(*anchorMMU)
	m.Translate(0x10000) // fills anchor with contiguity 10
	if got := proc.PageTable().AnchorContiguity(0x10000, 16); got != 10 {
		t.Fatalf("anchor contiguity = %d", got)
	}
	// VPN 0x1000C: same anchor unit, beyond contiguity 10 -> Table 2 row
	// 3: anchor hit, contiguity miss, walk, fill regular.
	res := m.Translate(0x1000C)
	if res.Outcome != OutWalk {
		t.Fatalf("contiguity miss = %+v", res)
	}
	if am.Actions()[core.ActionFillRegular] != 1 {
		t.Fatalf("row 3 not taken: %v", am.Actions())
	}
	if res.PFN != mem.PFN(2<<22)+2 {
		t.Fatalf("translation wrong: %#x", uint64(res.PFN))
	}
	// Re-access: regular L2 hit now (L1 holds it, so evict L1 first by
	// conflict; instead simply verify via stats after another access).
	res = m.Translate(0x1000C)
	if res.Outcome != OutL1Hit {
		t.Fatalf("refill missing: %+v", res)
	}
}

func TestAnchorSharedL2Capacity(t *testing.T) {
	// Anchor entries share the same physical L2: filling thousands of
	// regular entries must be able to evict anchors.
	cl := mem.ChunkList{{StartVPN: 0, StartPFN: 1 << 22, Pages: 1 << 15}}
	_, m := buildProc(t, Anchor, cl, 0) // selection picks a big distance
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		m.Translate(mem.VPN(r.Int63n(1 << 15)))
	}
	st := m.Stats()
	if st.CoalescedHits == 0 {
		t.Error("no anchor hits on a fully contiguous mapping")
	}
	if st.Faults != 0 {
		t.Errorf("%d faults on fully mapped region", st.Faults)
	}
}

func TestClusterCoalescing(t *testing.T) {
	// 8 contiguous pages: one walk, then cluster hits for the rest of
	// the block after L1 eviction is impossible here, so check stats by
	// touching each page once — 1 walk + 7 cluster hits.
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 8}}
	_, m := buildProc(t, Cluster, cl, 0)
	for i := mem.VPN(0); i < 8; i++ {
		m.Translate(0x10000 + i)
	}
	st := m.Stats()
	if st.Walks != 1 {
		t.Errorf("walks = %d, want 1 (block coalesced)", st.Walks)
	}
	if st.CoalescedHits != 7 {
		t.Errorf("cluster hits = %d, want 7", st.CoalescedHits)
	}
}

func TestClusterSingletonGoesRegular(t *testing.T) {
	// Physically scattered single pages cannot coalesce: every page is
	// its own walk, then regular entries.
	cl := mem.ChunkList{
		{StartVPN: 0x10000, StartPFN: 1000, Pages: 1},
		{StartVPN: 0x10001, StartPFN: 5000, Pages: 1},
		{StartVPN: 0x10002, StartPFN: 9000, Pages: 1},
	}
	_, m := buildProc(t, Cluster, cl, 0)
	for i := mem.VPN(0); i < 3; i++ {
		m.Translate(0x10000 + i)
	}
	if st := m.Stats(); st.Walks != 3 || st.CoalescedHits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCluster2MUsesHugePages(t *testing.T) {
	cl := mem.ChunkList{{StartVPN: 0, StartPFN: 1 << 22, Pages: 1024}}
	proc, m := buildProc(t, Cluster2M, cl, 0)
	if proc.HugePages() != 2 {
		t.Fatalf("huge pages = %d", proc.HugePages())
	}
	m.Translate(0)
	// Another page in the same huge page: L1 2M hit.
	res := m.Translate(100)
	if res.Outcome != OutL1Hit {
		t.Errorf("huge-page L1 reuse = %+v", res)
	}
	if res.PFN != mem.PFN(1<<22)+100 {
		t.Errorf("PFN = %#x", uint64(res.PFN))
	}
}

func TestRMMRangeHit(t *testing.T) {
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 1 << 14}}
	_, m := buildProc(t, RMM, cl, 0)
	m.Translate(0x10000) // walk refills the range
	// A page far away in the same range: range TLB hit (L1 and L2 miss).
	res := m.Translate(0x10000 + 8000)
	if res.Outcome != OutCoalescedHit || res.Cycles != 8 {
		t.Fatalf("range access = %+v", res)
	}
	if res.PFN != mem.PFN(1<<22)+8000 {
		t.Fatalf("range translation wrong")
	}
}

func TestRMMThrashesOnFragmentation(t *testing.T) {
	// More ranges than the 32-entry range TLB, each touched round-robin:
	// almost every L2 miss is also a range miss.
	r := rand.New(rand.NewSource(3))
	cl := randomChunks(r, 500, 8) // 500 tiny ranges
	_, m := buildProc(t, RMM, cl, 0)
	lo, hi := cl[0].StartVPN, cl[len(cl)-1].EndVPN()
	for pass := 0; pass < 3; pass++ {
		for v := lo; v < hi; v += 7 {
			m.Translate(v)
		}
	}
	st := m.Stats()
	if st.CoalescedHits > st.Walks/2 {
		t.Errorf("range TLB unexpectedly effective on 500 tiny ranges: %+v", st)
	}
}

// TestFigure2Shape reproduces the motivation experiment in miniature:
// cluster helps at small contiguity where RMM fails; RMM wins at max
// contiguity.
func TestFigure2Shape(t *testing.T) {
	run := func(s Scheme, cl mem.ChunkList) uint64 {
		_, m := buildProc(t, s, cl, 0)
		r := rand.New(rand.NewSource(4))
		lo := cl[0].StartVPN
		span := int64(cl[len(cl)-1].EndVPN() - lo)
		for i := 0; i < 100000; i++ {
			m.Translate(lo + mem.VPN(r.Int63n(span)))
		}
		return m.Stats().Misses()
	}
	r := rand.New(rand.NewSource(5))
	small := randomChunks(r, 4096, 8) // ~16k pages in tiny chunks
	big := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 1 << 14}}

	baseSmall, clusterSmall, rmmSmall := run(Base, small), run(Cluster, small), run(RMM, small)
	if clusterSmall >= baseSmall {
		t.Errorf("small contiguity: cluster (%d) did not beat base (%d)", clusterSmall, baseSmall)
	}
	if rmmSmall < baseSmall*8/10 {
		t.Errorf("small contiguity: RMM (%d) should be nearly ineffective vs base (%d)", rmmSmall, baseSmall)
	}
	rmmBig, clusterBig := run(RMM, big), run(Cluster, big)
	if rmmBig*10 > rmmSmall {
		t.Errorf("max contiguity: RMM misses (%d) should collapse vs fragmented (%d)", rmmBig, rmmSmall)
	}
	if rmmBig >= clusterBig {
		t.Errorf("max contiguity: RMM (%d) should beat cluster (%d)", rmmBig, clusterBig)
	}
}

func TestFlushWiredToProcess(t *testing.T) {
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 4096}}
	proc, m := buildProc(t, Anchor, cl, 16)
	m.Translate(0x10000)
	if res := m.Translate(0x10000); res.Outcome != OutL1Hit {
		t.Fatal("warm access missed")
	}
	proc.ChangeDistance(64, osmem.DefaultSweepCost)
	// After the OS-initiated flush, the next access must walk again.
	if res := m.Translate(0x10000); res.Outcome != OutWalk {
		t.Errorf("post-flush access = %+v", res)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o := OutL1Hit; o <= OutFault; o++ {
		if o.String() == "" {
			t.Errorf("outcome %d has empty name", int(o))
		}
	}
}

func BenchmarkTranslateAnchorHit(b *testing.B) {
	cl := mem.ChunkList{{StartVPN: 0, StartPFN: 1 << 22, Pages: 1 << 16}}
	proc := osmem.NewProcess(Anchor.Policy())
	if err := proc.InstallChunks(cl, 256); err != nil {
		b.Fatal(err)
	}
	m := New(Anchor, DefaultConfig(), proc)
	r := rand.New(rand.NewSource(1))
	vpns := make([]mem.VPN, 4096)
	for i := range vpns {
		vpns[i] = mem.VPN(r.Int63n(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Translate(vpns[i&4095])
	}
}

// TestShootdownReachesAllSchemes: after the OS unmaps pages, no scheme may
// serve a stale translation from any TLB level.
func TestShootdownReachesAllSchemes(t *testing.T) {
	for _, s := range All() {
		cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 2048}}
		proc, m := buildProc(t, s, cl, 16)
		if s.Policy().Anchors == false {
			proc, m = buildProc(t, s, cl, 0)
		}
		// Warm every level: walk then re-touch.
		for _, v := range []mem.VPN{0x10000, 0x10001, 0x10400, 0x10407} {
			m.Translate(v)
			m.Translate(v)
		}
		proc.UnmapRange(0x10000, 1024)
		for _, v := range []mem.VPN{0x10000, 0x10001, 0x103FF} {
			if res := m.Translate(v); res.Outcome != OutFault {
				t.Errorf("%v: stale translation of %#x after unmap: %+v", s, uint64(v), res)
			}
		}
		// Surviving pages still translate correctly.
		res := m.Translate(0x10400 + 5)
		want, _ := proc.Translate(0x10400 + 5)
		if res.Outcome == OutFault || res.PFN != want {
			t.Errorf("%v: surviving page broken: %+v, want %#x", s, res, uint64(want))
		}
	}
}

// TestStaleAnchorAfterPartialUnmap: an anchor whose run was shortened by an
// unmap must not cover the hole any more.
func TestStaleAnchorAfterPartialUnmap(t *testing.T) {
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 64}}
	proc, m := buildProc(t, Anchor, cl, 16)
	m.Translate(0x10000)          // fill anchor covering 64 pages
	m.Translate(0x10000 + 8)      // anchor hit
	proc.UnmapRange(0x10000+4, 4) // punch [4, 8)
	if res := m.Translate(0x10000 + 5); res.Outcome != OutFault {
		t.Fatalf("hole translated: %+v", res)
	}
	// Pages before the hole still work through the (rewritten) anchor.
	res := m.Translate(0x10000 + 2)
	if res.Outcome == OutFault || res.PFN != mem.PFN(1<<22)+2 {
		t.Fatalf("pre-hole page broken: %+v", res)
	}
}

func TestCoLTFACoalescesLongRuns(t *testing.T) {
	// A 200-page contiguous chunk: one walk discovers the whole run; the
	// remaining pages are fully associative coalesced hits.
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 200}}
	_, m := buildProc(t, CoLTFA, cl, 0)
	for i := mem.VPN(0); i < 200; i++ {
		m.Translate(0x10000 + i)
	}
	st := m.Stats()
	if st.Walks != 1 {
		t.Errorf("walks = %d, want 1 (run fully coalesced)", st.Walks)
	}
	if st.CoalescedHits != 199 {
		t.Errorf("coalesced hits = %d, want 199", st.CoalescedHits)
	}
}

func TestCoLTFARunCap(t *testing.T) {
	// A 1000-page chunk exceeds the 256-page coalescing cap: at least
	// ceil(1000/256) walks.
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 1000}}
	_, m := buildProc(t, CoLTFA, cl, 0)
	for i := mem.VPN(0); i < 1000; i++ {
		m.Translate(0x10000 + i)
	}
	st := m.Stats()
	if st.Walks < 4 {
		t.Errorf("walks = %d; cap not enforced", st.Walks)
	}
	if st.Walks > 8 {
		t.Errorf("walks = %d; coalescing far below cap", st.Walks)
	}
}

// TestCoalescingMissWalksOnce checks that a coalescing fill's scan is
// not counted as page walks: a miss advances the page table's Walks by
// exactly one, and the neighbouring entries the fill examines count in
// PTEReads — the 255 run pages past the missing one for colt-fa (cap
// 256), one PTE cache block for the block-coalescing schemes.
func TestCoalescingMissWalksOnce(t *testing.T) {
	// Frames offset from the 2 MiB virtual alignment, so the THP scheme
	// maps 4 KiB pages and every fill scans.
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1<<22 + 3, Pages: 1000}}
	cases := []struct {
		s         Scheme
		wantReads uint64
	}{
		{CoLTFA, DefaultConfig().CoLTFAMaxPages - 1},
		{Cluster, pagetable.EntriesPerCacheBlock},
		{Cluster2M, pagetable.EntriesPerCacheBlock},
		{CoLT, pagetable.EntriesPerCacheBlock},
	}
	for _, c := range cases {
		s, wantReads := c.s, c.wantReads
		for _, batch := range []bool{false, true} {
			proc, m := buildProc(t, s, cl, 0)
			before := proc.PageTable().Stats()
			vpn := mem.VPN(0x10000 + 500)
			if batch {
				m.TranslateBatch([]mem.VPN{vpn})
			} else if res := m.Translate(vpn); res.Outcome != OutWalk {
				t.Fatalf("%v: first access outcome %v, want a walk", s, res.Outcome)
			}
			after := proc.PageTable().Stats()
			if got := after.Walks - before.Walks; got != 1 || m.Stats().Walks != 1 {
				t.Errorf("%v (batch %v): page table Walks advanced %d, mmu Walks %d; want 1 and 1",
					s, batch, got, m.Stats().Walks)
			}
			if got := after.PTEReads - before.PTEReads; got != wantReads {
				t.Errorf("%v (batch %v): PTEReads advanced %d, want %d", s, batch, got, wantReads)
			}
		}
	}
}

func TestCoLTFAEntryLimitThrashes(t *testing.T) {
	// Far more runs than the 16 fully associative entries, touched round
	// robin: the FA array cannot hold them (the Section 2.1 trade-off).
	r := rand.New(rand.NewSource(6))
	cl := randomChunks(r, 200, 8)
	_, m := buildProc(t, CoLTFA, cl, 0)
	lo, hi := cl[0].StartVPN, cl[len(cl)-1].EndVPN()
	for pass := 0; pass < 3; pass++ {
		for v := lo; v < hi; v += 3 {
			m.Translate(v)
		}
	}
	st := m.Stats()
	if st.CoalescedHits > st.Walks {
		t.Errorf("FA array unexpectedly effective over 200 runs: %+v", st)
	}
}

func TestCoLTFAMidRunDiscovery(t *testing.T) {
	// Walking a page in the middle of a run must discover both
	// directions.
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 22, Pages: 64}}
	_, m := buildProc(t, CoLTFA, cl, 0)
	m.Translate(0x10000 + 32) // mid-run walk
	res := m.Translate(0x10000)
	if res.Outcome != OutCoalescedHit {
		t.Errorf("backward extension missing: %+v", res)
	}
	res = m.Translate(0x10000 + 63)
	if res.Outcome != OutCoalescedHit {
		t.Errorf("forward extension missing: %+v", res)
	}
}
