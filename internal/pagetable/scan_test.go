package pagetable

import (
	"math/rand"
	"testing"

	"hybridtlb/internal/mem"
)

// walkRun is the reference for ScanRun: the per-page Walk loop coalescing
// run discovery used before it read the leaf array directly. It extends
// vpn -> pfn forward, then backward, one full walk per neighbouring page.
func walkRun(t *Table, vpn mem.VPN, pfn mem.PFN, maxPages uint64) (start mem.VPN, startPFN mem.PFN, pages uint64) {
	start, startPFN, pages = vpn, pfn, 1
	end, endPFN := vpn+1, pfn+1
	for pages < maxPages {
		w := t.Walk(end)
		if !w.Present || w.Class != mem.Class4K || w.PFN != endPFN {
			break
		}
		end++
		endPFN++
		pages++
	}
	for pages < maxPages && start > 0 {
		w := t.Walk(start - 1)
		if !w.Present || w.Class != mem.Class4K || w.PFN != startPFN-1 {
			break
		}
		start--
		startPFN--
		pages++
	}
	return start, startPFN, pages
}

// walkBlockBitmap is the reference for ReadBlock: the per-page Walk loop
// the cluster and CoLT fills used to build a block's coverage bitmap.
// Bit i is set when block page i is a present 4 KiB page mapping to
// pfnBase+i.
func walkBlockBitmap(t *Table, base mem.VPN, pfnBase mem.PFN) (bitmap uint8) {
	for off := mem.VPN(0); off < EntriesPerCacheBlock; off++ {
		w := t.Walk(base + off)
		if w.Present && w.Class == mem.Class4K && w.PFN == pfnBase+mem.PFN(off) {
			bitmap |= 1 << uint(off)
		}
	}
	return bitmap
}

// readBlockBitmap builds the same bitmap from one ReadBlock.
func readBlockBitmap(t *Table, base mem.VPN, pfnBase mem.PFN) (bitmap uint8) {
	for off, e := range t.ReadBlock(base) {
		if e.Present() && e.PFN() == pfnBase+mem.PFN(off) {
			bitmap |= 1 << uint(off)
		}
	}
	return bitmap
}

// Landmarks of scanTable's hand-placed regions.
const (
	scanCap       = 64      // the cap the at-cap runs are sized against
	atCapVPN      = 0x3000  // scanCap pages, isolated by holes
	overCapVPN    = 0x3100  // scanCap+1 pages, isolated by holes
	crossLeafVPN  = 0x1000  // run [0x1000-100, 0x1000+100) across a leaf boundary
	hugeBeforeVPN = 0x2000  // 2 MiB page at [0x2000, 0x2200), 4 KiB run after it
	hugeAfterVPN  = 0x2800  // 4 KiB run ending at 0x2800, 2 MiB page from there
	gigaVPN       = 1 << 18 // 1 GiB page; a 4 KiB run ends right below it
)

// scanTable builds a fixed-seed page table mixing every case the scans
// must stop at or carry across: a run from VPN 0, runs across 512-entry
// leaf boundaries, 2 MiB pages directly before and after 4 KiB runs whose
// frames continue into the huge page, a 1 GiB page after a run, holes,
// runs exactly at the cap and one over it, and a randomly fragmented
// region of short runs, frame jumps, holes and huge pages.
func scanTable(t *testing.T) *Table {
	t.Helper()
	pt := New()
	mapRun := func(vpn mem.VPN, pfn mem.PFN, pages int) {
		for i := 0; i < pages; i++ {
			pt.Map4K(vpn+mem.VPN(i), pfn+mem.PFN(i), FlagWrite)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	// A run from VPN 0 (backward extension must stop at the address
	// space floor), then a hole at 40.
	mapRun(0, 7000, 40)
	// A 200-page run across the leaf boundary at crossLeafVPN, with one
	// hole on each side so it is bounded.
	mapRun(crossLeafVPN-100, 20000, 200)
	// A run spanning three leaves: [0x1400-10, 0x1800+10).
	mapRun(0x1400-10, 30000, 0x400+20)
	// 2 MiB page, then a 4 KiB run whose first frame continues the
	// huge page's frames: contiguous physically, but a Walk sees
	// Class2M, so the run must not extend backward into it.
	must(pt.Map2M(hugeBeforeVPN, 1<<16, FlagWrite))
	mapRun(hugeBeforeVPN+512, 1<<16+512, 100)
	// A 4 KiB run ending at a 2 MiB page whose frames continue it.
	mapRun(hugeAfterVPN-100, 3<<16-100, 100)
	must(pt.Map2M(hugeAfterVPN, 3<<16, FlagWrite))
	// Runs exactly at the cap and one page over it, holes around both.
	mapRun(atCapVPN, 50000, scanCap)
	mapRun(overCapVPN, 60000, scanCap+1)
	// A run ending right below a 1 GiB page whose frames continue it.
	mapRun(gigaVPN-50, 2<<18-50, 50)
	must(pt.Map1G(gigaVPN, 2<<18, FlagWrite))

	// Random fragmentation over [0x4000, 0x8000): runs of 1-600 pages
	// that continue the previous frame or jump, holes, and 2 MiB pages.
	r := rand.New(rand.NewSource(12))
	vpn, pfn := mem.VPN(0x4000), mem.PFN(1<<20)
	for vpn < 0x8000 {
		switch k := r.Intn(10); {
		case k == 0: // hole
			vpn += mem.VPN(1 + r.Intn(40))
		case k == 1:
			// Skip to the next 2 MiB boundary and map a huge page there;
			// a following run may continue its frames.
			vpn = vpn.AlignDown(mem.PagesPer2M) + mem.VPN(mem.PagesPer2M)
			pfn = pfn.AlignDown(mem.PagesPer2M) + mem.PFN(4*mem.PagesPer2M)
			must(pt.Map2M(vpn, pfn, FlagWrite))
			vpn += mem.VPN(mem.PagesPer2M)
			pfn += mem.PFN(mem.PagesPer2M)
		default:
			if r.Intn(3) == 0 {
				pfn += mem.PFN(1 + r.Intn(5000)) // physical discontinuity
			}
			n := 1 + r.Intn(600)
			if rem := int(0x8000 - vpn); n > rem {
				n = rem
			}
			mapRun(vpn, pfn, n)
			vpn += mem.VPN(n)
			pfn += mem.PFN(n)
		}
	}
	// Anchor-style ignored bits on entries (present or not) must not
	// disturb either scan.
	pt.SetAnchorContiguity(0x4000, 8, 5)
	pt.SetAnchorContiguity(crossLeafVPN-104, 8, 3)
	return pt
}

// present4K lists every present 4 KiB mapping of pt in VPN order.
func present4K(pt *Table) (vpns []mem.VPN, pfns []mem.PFN) {
	pt.Range(func(vpn mem.VPN, e PTE, class mem.PageClass) bool {
		if class == mem.Class4K {
			vpns = append(vpns, vpn)
			pfns = append(pfns, e.PFN())
		}
		return true
	})
	return vpns, pfns
}

// TestScanRunMatchesWalkLoop pins ScanRun to the per-page Walk loop for
// every present 4 KiB page of the mixed table under caps below, at and
// above every run length in it.
func TestScanRunMatchesWalkLoop(t *testing.T) {
	pt := scanTable(t)
	vpns, pfns := present4K(pt)
	caps := []uint64{0, 1, 2, 7, scanCap, scanCap + 1, 256, 2048}
	for k, vpn := range vpns {
		for _, c := range caps {
			ws, wp, wn := walkRun(pt, vpn, pfns[k], c)
			gs, gp, gn := pt.ScanRun(vpn, pfns[k], c)
			if gs != ws || gp != wp || gn != wn {
				t.Fatalf("ScanRun(%#x, %#x, %d) = (%#x, %#x, %d), Walk loop (%#x, %#x, %d)",
					uint64(vpn), uint64(pfns[k]), c, uint64(gs), uint64(gp), gn, uint64(ws), uint64(wp), wn)
			}
		}
	}
}

// TestScanRunCases states the expected run for each hand-placed case, so
// the table is known to contain what TestScanRunMatchesWalkLoop relies on.
func TestScanRunCases(t *testing.T) {
	pt := scanTable(t)
	cases := []struct {
		name      string
		vpn       mem.VPN
		cap       uint64
		start     mem.VPN
		pages     uint64
		startFrom mem.PFN // frame of start
	}{
		{"from VPN 0", 0, 256, 0, 40, 7000},
		{"mid-run down to VPN 0", 39, 256, 0, 40, 7000},
		{"forward across leaf", crossLeafVPN - 100, 256, crossLeafVPN - 100, 200, 20000},
		{"backward across leaf", crossLeafVPN + 99, 256, crossLeafVPN - 100, 200, 20000},
		{"both ways across leaf", crossLeafVPN, 256, crossLeafVPN - 100, 200, 20000},
		{"three leaves", 0x1400 - 10, 2048, 0x1400 - 10, 0x400 + 20, 30000},
		{"three leaves backward", 0x1800 + 9, 2048, 0x1400 - 10, 0x400 + 20, 30000},
		{"2M page before run", hugeBeforeVPN + 600, 256, hugeBeforeVPN + 512, 100, 1<<16 + 512},
		{"2M page after run", hugeAfterVPN - 100, 256, hugeAfterVPN - 100, 100, 3<<16 - 100},
		{"1G page after run", gigaVPN - 50, 256, gigaVPN - 50, 50, 2<<18 - 50},
		{"exactly at cap", atCapVPN, scanCap, atCapVPN, scanCap, 50000},
		{"exactly at cap from end", atCapVPN + scanCap - 1, scanCap, atCapVPN, scanCap, 50000},
		{"one over cap", overCapVPN, scanCap, overCapVPN, scanCap, 60000},
		{"one over cap from end", overCapVPN + scanCap, scanCap, overCapVPN + 1, scanCap, 60001},
		{"one over cap uncapped", overCapVPN + 3, 256, overCapVPN, scanCap + 1, 60000},
	}
	for _, c := range cases {
		w := pt.Walk(c.vpn)
		if !w.Present || w.Class != mem.Class4K {
			t.Fatalf("%s: VPN %#x is not a present 4 KiB page", c.name, uint64(c.vpn))
		}
		start, startPFN, pages := pt.ScanRun(c.vpn, w.PFN, c.cap)
		if start != c.start || pages != c.pages || startPFN != c.startFrom {
			t.Errorf("%s: ScanRun = (%#x, %d, %d pages), want (%#x, %d, %d pages)",
				c.name, uint64(start), startPFN, pages, uint64(c.start), c.startFrom, c.pages)
		}
	}
}

// TestReadBlockMatchesWalkLoop pins ReadBlock's bitmap to the per-page
// Walk loop for every present 4 KiB page's block, and its per-entry view
// to Walk for every block of the table's span, holes and huge pages
// included, reading each block through every VPN it covers.
func TestReadBlockMatchesWalkLoop(t *testing.T) {
	pt := scanTable(t)
	vpns, pfns := present4K(pt)
	for k, vpn := range vpns {
		base := vpn.AlignDown(EntriesPerCacheBlock)
		pfnBase := pfns[k] - mem.PFN(vpn-base)
		if got, want := readBlockBitmap(pt, base, pfnBase), walkBlockBitmap(pt, base, pfnBase); got != want {
			t.Fatalf("block %#x (pfn base %#x): ReadBlock bitmap %08b, Walk loop %08b",
				uint64(base), uint64(pfnBase), got, want)
		}
	}
	for vpn := mem.VPN(0); vpn < 0x8000; vpn++ {
		base := vpn.AlignDown(EntriesPerCacheBlock)
		for off, e := range pt.ReadBlock(vpn) {
			w := pt.Walk(base + mem.VPN(off))
			want4K := w.Present && w.Class == mem.Class4K
			if e.Present() != want4K || (want4K && e.PFN() != w.PFN) {
				t.Fatalf("ReadBlock(%#x)[%d] = %#x, Walk of %#x %+v",
					uint64(vpn), off, uint64(e), uint64(base)+uint64(off), w)
			}
		}
	}
	if block := pt.ReadBlock(hugeBeforeVPN + 8); block != ([EntriesPerCacheBlock]PTE{}) {
		t.Errorf("ReadBlock inside a 2 MiB page = %v, want all zero", block)
	}
}

// TestScanAccounting checks that scans count leaf reads in PTEReads and
// never count as walks.
func TestScanAccounting(t *testing.T) {
	pt := scanTable(t)
	before := pt.Stats()
	_, _, pages := pt.ScanRun(crossLeafVPN, 20100, 256)
	pt.ReadBlock(crossLeafVPN)
	pt.ComputeContiguity(atCapVPN, 8)
	after := pt.Stats()
	if after.Walks != before.Walks {
		t.Errorf("scans advanced Walks by %d, want 0", after.Walks-before.Walks)
	}
	// 199 run entries and the two that end the run; 8 block entries;
	// the anchor, its 63 run successors and the hole after them.
	if got, want := after.PTEReads-before.PTEReads, (pages+1)+EntriesPerCacheBlock+(1+scanCap); got != want {
		t.Errorf("PTEReads advanced %d, want %d", got, want)
	}
}

// BenchmarkScanRun measures one 256-page run discovery through a leaf
// boundary, the colt-fa fill's scan at its default cap.
func BenchmarkScanRun(b *testing.B) {
	pt := New()
	for i := mem.VPN(0); i < 1024; i++ {
		pt.Map4K(i, 5000+mem.PFN(i), FlagWrite)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, scanSink = pt.ScanRun(400, 5400, 256)
	}
}

var scanSink uint64
