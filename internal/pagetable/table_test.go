package pagetable

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hybridtlb/internal/mem"
)

func TestPTEBitPacking(t *testing.T) {
	var e PTE
	e = (FlagPresent | FlagWrite).WithPFN(0x123456789).WithIgn(0x5aa)
	if !e.Present() {
		t.Error("present bit lost")
	}
	if e.Huge() {
		t.Error("huge bit set spuriously")
	}
	if e.PFN() != 0x123456789 {
		t.Errorf("PFN = %#x", uint64(e.PFN()))
	}
	if e.Ign() != 0x5aa {
		t.Errorf("Ign = %#x", e.Ign())
	}
	if e.Flags() != FlagPresent|FlagWrite {
		t.Errorf("Flags = %#x", uint64(e.Flags()))
	}
	// Fields must be independent.
	e = e.WithIgn(0)
	if e.PFN() != 0x123456789 || !e.Present() {
		t.Error("WithIgn clobbered other fields")
	}
	e = e.WithPFN(0)
	if e.Ign() != 0 || !e.Present() {
		t.Error("WithPFN clobbered other fields")
	}
}

func TestPTEFieldIsolationProperty(t *testing.T) {
	f := func(pfnRaw, ignRaw uint64, flagsRaw uint8) bool {
		pfn := mem.PFN(pfnRaw & ((1 << 40) - 1))
		ign := ignRaw & ((1 << IgnBits) - 1)
		flags := PTE(flagsRaw) & FlagMask
		e := flags.WithPFN(pfn).WithIgn(ign)
		return e.PFN() == pfn && e.Ign() == ign && e.Flags() == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMap4KWalk(t *testing.T) {
	pt := New()
	pt.Map4K(0x12345, 0x777, FlagWrite)
	w := pt.Walk(0x12345)
	if !w.Present || w.PFN != 0x777 || w.Class != mem.Class4K {
		t.Fatalf("walk = %+v", w)
	}
	if w.Levels != 4 {
		t.Errorf("levels = %d, want 4", w.Levels)
	}
	if w.BaseVPN != 0x12345 || w.BasePFN != 0x777 {
		t.Errorf("base = %#x/%#x", uint64(w.BaseVPN), uint64(w.BasePFN))
	}
	if got := pt.Walk(0x12346); got.Present {
		t.Error("unmapped neighbour resolved")
	}
}

func TestMap2MWalk(t *testing.T) {
	pt := New()
	if err := pt.Map2M(512, 1024, FlagWrite); err != nil {
		t.Fatal(err)
	}
	// Any VPN inside the huge page translates with the offset applied.
	w := pt.Walk(512 + 77)
	if !w.Present || w.Class != mem.Class2M {
		t.Fatalf("walk = %+v", w)
	}
	if w.PFN != 1024+77 {
		t.Errorf("PFN = %d, want %d", w.PFN, 1024+77)
	}
	if w.BaseVPN != 512 || w.BasePFN != 1024 {
		t.Errorf("base = %d/%d", w.BaseVPN, w.BasePFN)
	}
	if w.Levels != 3 {
		t.Errorf("levels = %d, want 3 (PD leaf)", w.Levels)
	}
}

func TestMap2MValidation(t *testing.T) {
	pt := New()
	if err := pt.Map2M(5, 512, 0); err == nil {
		t.Error("unaligned vpn accepted")
	}
	if err := pt.Map2M(512, 5, 0); err == nil {
		t.Error("unaligned pfn accepted")
	}
	pt.Map4K(1024, 1, 0)
	if err := pt.Map2M(1024, 2048, 0); err == nil {
		t.Error("2M mapping over existing 4K table accepted")
	}
}

func TestUnmap(t *testing.T) {
	pt := New()
	pt.Map4K(100, 200, 0)
	if !pt.Unmap(100) {
		t.Error("unmap of mapped page failed")
	}
	if pt.Unmap(100) {
		t.Error("double unmap succeeded")
	}
	if pt.Walk(100).Present {
		t.Error("page still present after unmap")
	}

	if err := pt.Map2M(1024, 2048, 0); err != nil {
		t.Fatal(err)
	}
	if !pt.Unmap(1024 + 33) { // any vpn inside the huge page
		t.Error("unmap of 2M page failed")
	}
	if pt.Walk(1024).Present {
		t.Error("2M page still present after unmap")
	}
	if pt.Unmap(1 << 30) {
		t.Error("unmap of never-mapped region succeeded")
	}
}

func TestWalkMatchesMappingProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		pt := New()
		want := make(map[mem.VPN]mem.PFN)
		for i, s := range seeds {
			vpn := mem.VPN(s % (1 << 24))
			pfn := mem.PFN(i + 1)
			pt.Map4K(vpn, pfn, FlagWrite)
			want[vpn] = pfn
		}
		for vpn, pfn := range want {
			w := pt.Walk(vpn)
			if !w.Present || w.PFN != pfn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRangeOrderAndCoverage(t *testing.T) {
	pt := New()
	vpns := []mem.VPN{5, 1 << 20, 3, 512 * 7, 1<<20 + 1}
	for i, v := range vpns {
		pt.Map4K(v, mem.PFN(1000+i), 0)
	}
	if err := pt.Map2M(1<<21, 1<<22, 0); err != nil {
		t.Fatal(err)
	}
	var got []mem.VPN
	var classes []mem.PageClass
	pt.Range(func(v mem.VPN, e PTE, c mem.PageClass) bool {
		got = append(got, v)
		classes = append(classes, c)
		return true
	})
	want := []mem.VPN{3, 5, 512 * 7, 1 << 20, 1<<20 + 1, 1 << 21}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
		}
	}
	if classes[5] != mem.Class2M {
		t.Errorf("last entry class = %v, want 2M", classes[5])
	}
	// Early termination.
	count := 0
	pt.Range(func(mem.VPN, PTE, mem.PageClass) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early stop visited %d entries, want 2", count)
	}
}

func TestAnchorContiguityRoundTrip(t *testing.T) {
	pt := New()
	for i := mem.VPN(0); i < 64; i++ {
		pt.Map4K(i, 100+mem.PFN(i), 0)
	}
	// Distance 16 (>= 8): distributed encoding, values beyond 1024 work.
	for _, c := range []uint64{1, 2, 7, 1024, 4000, 65536} {
		pt.SetAnchorContiguity(16, 16, c)
		if got := pt.AnchorContiguity(16, 16); got != c {
			t.Errorf("round trip c=%d got %d", c, got)
		}
	}
	// Beyond max caps.
	pt.SetAnchorContiguity(16, 16, MaxContiguity+5)
	if got := pt.AnchorContiguity(16, 16); got != MaxContiguity {
		t.Errorf("cap: got %d, want %d", got, MaxContiguity)
	}
	// Distance 4 (< 8): single-entry encoding caps at MaxContiguitySingle.
	pt.SetAnchorContiguity(4, 4, 3)
	if got := pt.AnchorContiguity(4, 4); got != 3 {
		t.Errorf("d=4 c=3 got %d", got)
	}
	pt.SetAnchorContiguity(4, 4, MaxContiguitySingle+1)
	if got := pt.AnchorContiguity(4, 4); got != MaxContiguitySingle {
		t.Errorf("single cap: got %d, want %d", got, MaxContiguitySingle)
	}
	// Clearing.
	pt.SetAnchorContiguity(16, 16, 0)
	if got := pt.AnchorContiguity(16, 16); got != 0 {
		t.Errorf("clear: got %d", got)
	}
}

func TestAnchorContiguityZeroVsOne(t *testing.T) {
	pt := New()
	pt.Map4K(0, 1, 0)
	pt.Map4K(8, 9, 0)
	if got := pt.AnchorContiguity(8, 8); got != 0 {
		t.Errorf("unwritten anchor = %d, want 0", got)
	}
	pt.SetAnchorContiguity(8, 8, 1)
	if got := pt.AnchorContiguity(8, 8); got != 1 {
		t.Errorf("contiguity 1 = %d", got)
	}
}

func TestAnchorArgValidation(t *testing.T) {
	pt := New()
	for _, fn := range []func(){
		func() { pt.SetAnchorContiguity(3, 4, 1) }, // misaligned
		func() { pt.SetAnchorContiguity(0, 3, 1) }, // non-pow2 distance
		func() { pt.AnchorContiguity(1, 2) },       // misaligned
		func() { pt.AnchorContiguity(0, 1) },       // distance < 2
		func() { pt.ComputeContiguity(5, 4) },      // misaligned
		func() { pt.SweepAnchors(7, func(mem.VPN) uint64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAnchorOnMissingNode(t *testing.T) {
	pt := New()
	if w := pt.SetAnchorContiguity(1<<30, 8, 5); w != 0 {
		t.Errorf("writes on missing node = %d", w)
	}
	if got := pt.AnchorContiguity(1<<30, 8); got != 0 {
		t.Errorf("contiguity on missing node = %d", got)
	}
}

func TestComputeContiguity(t *testing.T) {
	pt := New()
	// 12 contiguous pages starting at VPN 0, then a physical gap.
	for i := mem.VPN(0); i < 12; i++ {
		pt.Map4K(i, 100+mem.PFN(i), 0)
	}
	pt.Map4K(12, 500, 0) // physically discontiguous
	pt.Map4K(13, 501, 0)
	if got := pt.ComputeContiguity(0, 8); got != 12 {
		t.Errorf("contiguity at 0 = %d, want 12", got)
	}
	if got := pt.ComputeContiguity(8, 8); got != 4 {
		t.Errorf("contiguity at 8 = %d, want 4", got)
	}
	// Anchor page unmapped -> 0.
	if got := pt.ComputeContiguity(16, 8); got != 0 {
		t.Errorf("contiguity at unmapped = %d, want 0", got)
	}
	// A hole terminates the run.
	pt.Map4K(24, 700, 0)
	pt.Map4K(26, 702, 0)
	if got := pt.ComputeContiguity(24, 8); got != 1 {
		t.Errorf("contiguity across hole = %d, want 1", got)
	}
	// 2 MiB page terminates the 4K run.
	for i := mem.VPN(504); i < 512; i++ {
		pt.Map4K(i, mem.PFN(i)+1000, 0)
	}
	if err := pt.Map2M(512, 1536, 0); err != nil {
		t.Fatal(err)
	}
	if got := pt.ComputeContiguity(504, 8); got != 8 {
		t.Errorf("contiguity into 2M page = %d, want 8", got)
	}
}

func TestSweepAnchors(t *testing.T) {
	pt := New()
	// 64 contiguous pages at VPN 0.
	for i := mem.VPN(0); i < 64; i++ {
		pt.Map4K(i, mem.PFN(i)+4096, 0)
	}
	res := pt.SweepAnchors(16, func(avpn mem.VPN) uint64 {
		return pt.ComputeContiguity(avpn, 16)
	})
	if res.AnchorsVisited != 4 {
		t.Errorf("anchors visited = %d, want 4", res.AnchorsVisited)
	}
	if res.PTEWrites != 8 { // distributed encoding writes 2 entries each
		t.Errorf("PTE writes = %d, want 8", res.PTEWrites)
	}
	if res.EntriesScanned != 64 {
		t.Errorf("entries scanned = %d, want 64", res.EntriesScanned)
	}
	for a := mem.VPN(0); a < 64; a += 16 {
		want := uint64(64 - a)
		if got := pt.AnchorContiguity(a, 16); got != want {
			t.Errorf("anchor %d contiguity = %d, want %d", a, got, want)
		}
	}
	// Re-sweeping with a larger distance visits fewer anchors.
	res2 := pt.SweepAnchors(32, func(avpn mem.VPN) uint64 {
		return pt.ComputeContiguity(avpn, 32)
	})
	if res2.AnchorsVisited != 2 {
		t.Errorf("anchors visited at d=32: %d, want 2", res2.AnchorsVisited)
	}
	if got := pt.AnchorContiguity(0, 32); got != 64 {
		t.Errorf("anchor 0 at d=32 = %d, want 64", got)
	}
}

func TestMapPreservesAnchorBits(t *testing.T) {
	pt := New()
	pt.Map4K(0, 100, 0)
	pt.SetAnchorContiguity(0, 8, 9)
	pt.Map4K(0, 200, FlagWrite) // remap must keep the OS contiguity bits
	if got := pt.AnchorContiguity(0, 8); got != 9 {
		t.Errorf("anchor bits after remap = %d, want 9", got)
	}
	if pt.Walk(0).PFN != 200 {
		t.Error("remap did not update frame")
	}
}

func TestStatsAccounting(t *testing.T) {
	pt := New()
	pt.Map4K(0, 1, 0)
	pt.Map4K(1, 2, 0)
	pt.Walk(0)
	pt.Walk(1)
	pt.Walk(99)
	s := pt.Stats()
	if s.Walks != 3 {
		t.Errorf("walks = %d, want 3", s.Walks)
	}
	if s.PTEWrites != 2 {
		t.Errorf("writes = %d, want 2", s.PTEWrites)
	}
	if s.Nodes != 4 { // root + 3 interior/leaf nodes for one path
		t.Errorf("nodes = %d, want 4", s.Nodes)
	}
}

func TestRandomMappingWalkEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pt := New()
	ref := make(map[mem.VPN]mem.PFN)
	for i := 0; i < 3000; i++ {
		vpn := mem.VPN(r.Intn(1 << 22))
		switch r.Intn(3) {
		case 0, 1:
			pfn := mem.PFN(r.Intn(1 << 20))
			pt.Map4K(vpn, pfn, 0)
			ref[vpn] = pfn
		case 2:
			pt.Unmap(vpn)
			delete(ref, vpn)
		}
	}
	for vpn, pfn := range ref {
		w := pt.Walk(vpn)
		if !w.Present || w.PFN != pfn {
			t.Fatalf("walk(%#x) = %+v, want pfn %#x", uint64(vpn), w, uint64(pfn))
		}
	}
	// Spot-check absent VPNs.
	for i := 0; i < 1000; i++ {
		vpn := mem.VPN(r.Intn(1 << 22))
		if _, ok := ref[vpn]; ok {
			continue
		}
		if pt.Walk(vpn).Present {
			t.Fatalf("walk(%#x) present, want absent", uint64(vpn))
		}
	}
}

func BenchmarkWalk4K(b *testing.B) {
	pt := New()
	for i := mem.VPN(0); i < 1<<16; i++ {
		pt.Map4K(i, mem.PFN(i), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(mem.VPN(i) & (1<<16 - 1))
	}
}

func BenchmarkSweepAnchors(b *testing.B) {
	pt := New()
	for i := mem.VPN(0); i < 1<<16; i++ {
		pt.Map4K(i, mem.PFN(i), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.SweepAnchors(64, func(avpn mem.VPN) uint64 { return 64 })
	}
}

func TestMap1G(t *testing.T) {
	pt := New()
	if err := pt.Map1G(5, 0, 0); err == nil {
		t.Error("unaligned 1G vpn accepted")
	}
	if err := pt.Map1G(mem.VPN(mem.PagesPer1G), 7, 0); err == nil {
		t.Error("unaligned 1G pfn accepted")
	}
	base := mem.VPN(mem.PagesPer1G)
	if err := pt.Map1G(base, mem.PFN(4*mem.PagesPer1G), FlagWrite); err != nil {
		t.Fatal(err)
	}
	w := pt.Walk(base + 123456)
	if !w.Present || w.Class != mem.Class1G {
		t.Fatalf("walk = %+v", w)
	}
	if w.PFN != mem.PFN(4*mem.PagesPer1G)+123456 {
		t.Errorf("PFN = %#x", uint64(w.PFN))
	}
	if w.Levels != 2 {
		t.Errorf("levels = %d, want 2 (PDPT leaf)", w.Levels)
	}
	// Overlap with existing 4K tables is rejected.
	pt2 := New()
	pt2.Map4K(base+5, 1, 0)
	if err := pt2.Map1G(base, 0, 0); err == nil {
		t.Error("1G over 4K table accepted")
	}
	// Range reports it once; Unmap removes the whole page.
	count := 0
	pt.Range(func(v mem.VPN, e PTE, c mem.PageClass) bool {
		count++
		if v != base || c != mem.Class1G {
			t.Errorf("range entry %v class %v", v, c)
		}
		return true
	})
	if count != 1 {
		t.Errorf("range saw %d entries", count)
	}
	if lines := pt.WalkLines(base + 99); len(lines) != 2 {
		t.Errorf("walk lines = %d, want 2", len(lines))
	}
	if !pt.Unmap(base + 77) {
		t.Error("1G unmap failed")
	}
	if pt.Walk(base).Present {
		t.Error("1G page survived unmap")
	}
}

// TestCollapse2M collapses the middle one of three populated leaves: the
// 2 MiB page replaces it in Walk, Range and WalkLines, the neighbouring
// leaves and their anchors are untouched, and Nodes drops by the one
// table page freed.
func TestCollapse2M(t *testing.T) {
	pt := New()
	const base = mem.VPN(0x3000)
	pt.MapRun4K(base-512, 40000, 3*512, FlagWrite)
	pt.SetAnchorContiguity(base-64, 64, 64)
	pt.SetAnchorContiguity(base+64, 64, 32)
	pt.SetAnchorContiguity(base+512, 64, 512)
	before := pt.Stats()
	linesBefore := pt.WalkLines(base + 512)

	if err := pt.Collapse2M(base, 1<<18, FlagWrite); err != nil {
		t.Fatal(err)
	}
	if s := pt.Stats(); s.Nodes != before.Nodes-1 || s.PTEWrites != before.PTEWrites+1 {
		t.Errorf("stats %+v after collapse, from %+v", s, before)
	}
	if w := pt.Walk(base + 100); !w.Present || w.Class != mem.Class2M || w.PFN != 1<<18+100 {
		t.Fatalf("walk = %+v", w)
	}
	if lines := pt.WalkLines(base + 100); len(lines) != 3 {
		t.Errorf("walk lines inside the collapsed page = %d, want 3", len(lines))
	}
	if got := pt.WalkLines(base + 512); !reflect.DeepEqual(got, linesBefore) {
		t.Errorf("neighbouring leaf moved: %#x, was %#x", got, linesBefore)
	}
	var classes []mem.PageClass
	pt.Range(func(vpn mem.VPN, e PTE, class mem.PageClass) bool {
		if vpn >= base && vpn < base+512 {
			classes = append(classes, class)
		}
		return true
	})
	if len(classes) != 1 || classes[0] != mem.Class2M {
		t.Errorf("Range over the collapsed page saw %v, want one 2M entry", classes)
	}
	if pt.AnchorContiguity(base-64, 64) != 64 || pt.AnchorContiguity(base+512, 64) != 512 {
		t.Error("anchors in the neighbouring leaves were disturbed")
	}
	if w := pt.Walk(base - 1); w.Class != mem.Class4K || w.PFN != 40000+511 {
		t.Errorf("page below the collapsed one = %+v", w)
	}
	if err := pt.Collapse2M(base, 1<<18, 0); err == nil {
		t.Error("double collapse accepted")
	}
	if err := pt.Collapse2M(5, 1024, 0); err == nil {
		t.Error("unaligned collapse accepted")
	}
	if err := pt.Collapse2M(1<<30, 0, 0); err == nil {
		t.Error("collapse of absent table accepted")
	}
}

// TestWalkFastMatchesWalk pins the unrolled hot-path walk to the
// reference Walk over a mixed table: 4 KiB pages, 2 MiB pages, and
// unmapped holes, probed at bases, interiors, and misses.
func TestWalkFastMatchesWalk(t *testing.T) {
	pt := New()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		vpn := mem.VPN(r.Uint64() % (1 << 24))
		pt.Map4K(vpn, mem.PFN(i+1), FlagWrite)
	}
	for i := 0; i < 8; i++ {
		vpn := mem.VPN(uint64(i+32) << 9)
		if err := pt.Map2M(vpn, mem.PFN(uint64(i+64)<<9), FlagWrite); err != nil {
			t.Fatal(err)
		}
	}
	walksBefore := pt.Stats().Walks
	probes := 0
	for i := 0; i < 5_000; i++ {
		vpn := mem.VPN(r.Uint64() % (1 << 25))
		w := pt.Walk(vpn)
		pfn, class, baseVPN, basePFN, present := pt.WalkFast(vpn)
		probes += 2
		if present != w.Present {
			t.Fatalf("vpn %#x: present %v, Walk said %v", uint64(vpn), present, w.Present)
		}
		if !present {
			if pfn != 0 || baseVPN != 0 || basePFN != 0 {
				t.Fatalf("vpn %#x: non-zero fields on miss", uint64(vpn))
			}
			continue
		}
		if pfn != w.PFN || class != w.Class || baseVPN != w.BaseVPN || basePFN != w.BasePFN {
			t.Fatalf("vpn %#x: WalkFast (%#x %v %#x %#x) != Walk (%#x %v %#x %#x)",
				uint64(vpn), uint64(pfn), class, uint64(baseVPN), uint64(basePFN),
				uint64(w.PFN), w.Class, uint64(w.BaseVPN), uint64(w.BasePFN))
		}
	}
	if got := pt.Stats().Walks - walksBefore; got != uint64(probes) {
		t.Errorf("Walks counter advanced %d, want %d (WalkFast must account like Walk)", got, probes)
	}
}

// TestReleaseRecyclesCleanLeaves: a table built after another was
// released — so possibly from its recycled leaves — is the table a fresh
// build gives: the same entries and nothing stale, the same walks, the
// same table addresses and the same counters.
func TestReleaseRecyclesCleanLeaves(t *testing.T) {
	old := New()
	old.MapRun4K(0x40000, 0x9000, 4096, FlagWrite)
	old.SetAnchorContiguity(0x40000, 64, 77)
	old.Release()

	build := func() *Table {
		pt := New()
		pt.MapRun4K(0x40200, 0x1000, 700, 0)
		pt.Map4K(0x90000, 0x5, FlagWrite)
		return pt
	}
	reused, fresh := build(), build()
	entries := func(pt *Table) map[mem.VPN]PTE {
		out := make(map[mem.VPN]PTE)
		pt.Range(func(vpn mem.VPN, e PTE, _ mem.PageClass) bool {
			out[vpn] = e
			return true
		})
		return out
	}
	if !reflect.DeepEqual(entries(reused), entries(fresh)) {
		t.Error("a table built on recycled leaves holds other entries than a fresh one")
	}
	for _, vpn := range []mem.VPN{0x40000, 0x40200, 0x404bb, 0x40600, 0x90000, 0x90001} {
		if a, b := reused.Walk(vpn), fresh.Walk(vpn); a != b {
			t.Errorf("walk(%#x) = %+v, fresh table %+v", uint64(vpn), a, b)
		}
		if a, b := reused.WalkLines(vpn), fresh.WalkLines(vpn); !reflect.DeepEqual(a, b) {
			t.Errorf("walk lines(%#x) = %v, fresh table %v", uint64(vpn), a, b)
		}
	}
	if reused.Stats() != fresh.Stats() {
		t.Errorf("stats %+v, fresh table %+v", reused.Stats(), fresh.Stats())
	}
}
