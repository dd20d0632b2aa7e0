package pagetable

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hybridtlb/internal/mem"
)

// map4KLoop is the reference for MapRun4K: one Map4K per page of the run.
func map4KLoop(t *Table, vpn mem.VPN, pfn mem.PFN, pages uint64, flags PTE) {
	for k := uint64(0); k < pages; k++ {
		t.Map4K(vpn+mem.VPN(k), pfn+mem.PFN(k), flags)
	}
}

type mapRunFunc func(t *Table, vpn mem.VPN, pfn mem.PFN, pages uint64, flags PTE)

// rangeEntry is one callback of Range.
type rangeEntry struct {
	vpn   mem.VPN
	e     PTE
	class mem.PageClass
}

// tableView is everything a page table shows its users: the Range
// output, the WalkLines of every mapped VPN and of extra probes, and the
// counters.
type tableView struct {
	entries []rangeEntry
	lines   map[mem.VPN][]mem.PhysAddr
	stats   Stats
}

func viewOf(pt *Table, probes ...mem.VPN) tableView {
	v := tableView{lines: make(map[mem.VPN][]mem.PhysAddr), stats: pt.Stats()}
	pt.Range(func(vpn mem.VPN, e PTE, class mem.PageClass) bool {
		v.entries = append(v.entries, rangeEntry{vpn, e, class})
		return true
	})
	for _, re := range v.entries {
		v.lines[re.vpn] = pt.WalkLines(re.vpn)
	}
	for _, vpn := range probes {
		v.lines[vpn] = pt.WalkLines(vpn)
	}
	return v
}

// sameView reports the first difference between two views, naming them
// got and want.
func sameView(t *testing.T, got, want tableView) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("stats %+v, want %+v", got.stats, want.stats)
	}
	if len(got.entries) != len(want.entries) {
		t.Errorf("Range saw %d entries, want %d", len(got.entries), len(want.entries))
	}
	for k := 0; k < min(len(got.entries), len(want.entries)); k++ {
		if got.entries[k] != want.entries[k] {
			t.Fatalf("Range entry %d = %+v, want %+v", k, got.entries[k], want.entries[k])
		}
	}
	for vpn, w := range want.lines {
		if g := got.lines[vpn]; !reflect.DeepEqual(g, w) {
			t.Fatalf("WalkLines(%#x) = %#x, want %#x", uint64(vpn), g, w)
		}
	}
	if len(got.lines) != len(want.lines) {
		t.Errorf("%d walked VPNs, want %d", len(got.lines), len(want.lines))
	}
}

// Landmarks of runTable's hand-placed runs.
const (
	anchoredLeafVPN = 0x8000 // leaf whose anchor bits are written before its run
	huge2MVPN       = 0xa000 // 2 MiB page with 4 KiB runs ending and starting at it

	pages2M = entriesPerNode // pages in a 2 MiB page, untyped for VPN and PFN sums
)

// runTable builds a fixed-seed page table with mapRun doing every 4 KiB
// install. The calls come in non-monotonic VPN order, so the table pages
// are not numbered in VPN order and a change in allocation order shows in
// WalkLines. It returns VPNs worth probing that no run maps.
func runTable(t *testing.T, mapRun mapRunFunc) (*Table, []mem.VPN) {
	t.Helper()
	pt := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Across one leaf boundary, then across several.
	mapRun(pt, 0x1000-100, 20000, 200, FlagWrite)
	mapRun(pt, 0x30000-3, 40000, 3*entriesPerNode+10, FlagWrite|FlagUser)
	// Starting at leaf index 511: one page, then a run into the next leaf.
	mapRun(pt, 0x5000+511, 50000, 1, FlagWrite)
	mapRun(pt, 0x5400+511, 50100, 9, FlagWrite)
	// Ending exactly on a leaf boundary, from mid-leaf and from a leaf
	// start; the next leaf must not be allocated.
	mapRun(pt, 0x6000+12, 60000, 500, FlagWrite)
	mapRun(pt, 0x6800, 61000, 2*entriesPerNode, FlagWrite)
	// Nothing to map: no table pages, no writes.
	mapRun(pt, 0x7000, 70000, 0, FlagWrite)
	// Anchor bits written into a leaf before the run that covers them,
	// on entries that are not yet present.
	pt.Map4K(anchoredLeafVPN+300, 80300, FlagWrite)
	pt.SetAnchorContiguity(anchoredLeafVPN, 64, 100)
	pt.SetAnchorContiguity(anchoredLeafVPN+64, 64, 7)
	pt.SetAnchorContiguity(anchoredLeafVPN+8, 8, 3)
	mapRun(pt, anchoredLeafVPN, 80000, entriesPerNode+40, FlagWrite)
	// Runs ending right below and starting right above a 2 MiB page.
	must(pt.Map2M(huge2MVPN, 1<<16, FlagWrite))
	mapRun(pt, huge2MVPN-256, 1<<16-256, 256, FlagWrite)
	mapRun(pt, huge2MVPN+pages2M, 1<<16+pages2M, 100, FlagWrite)
	// A 1 GiB page and a run just below it.
	must(pt.Map1G(1<<18, 2<<18, FlagWrite))
	mapRun(pt, 1<<18-50, 2<<18-50, 50, FlagWrite)
	// Runs back over pages mapped earlier, with other flags and frames.
	mapRun(pt, 0x1000-20, 90000, 40, FlagUser|FlagNX)
	// Scattered random runs over a 4 GiB span, some overlapping, with
	// 2 MiB pages where no leaf is in the way.
	r := rand.New(rand.NewSource(15))
	for k := 0; k < 60; k++ {
		vpn := mem.VPN(1<<19 + r.Intn(1<<20))
		if k%10 == 0 {
			base := vpn.AlignDown(pages2M)
			_ = pt.Map2M(base, mem.PFN(uint64(k+8)<<9), FlagWrite)
			continue
		}
		mapRun(pt, vpn, mem.PFN(1<<24+r.Intn(1<<24)), uint64(r.Intn(1500)), FlagWrite)
	}
	probes := []mem.VPN{0, 0x1000 - 101, 0x5000 + 510, 0x6000 + 512, 0x7000, huge2MVPN + 3, 1<<18 + 77, 1 << 35}
	return pt, probes
}

// TestMapRun4KMatchesMap4KLoop pins MapRun4K to the per-page Map4K loop:
// the same table built both ways shows the same Range entries, the same
// walk lines (so the same table pages at the same addresses) and the same
// counters.
func TestMapRun4KMatchesMap4KLoop(t *testing.T) {
	got, probes := runTable(t, (*Table).MapRun4K)
	want, _ := runTable(t, map4KLoop)
	sameView(t, viewOf(got, probes...), viewOf(want, probes...))
}

// TestMapRun4KCases states what the hand-placed runs of runTable must
// produce, so the table is known to contain the cases
// TestMapRun4KMatchesMap4KLoop relies on.
func TestMapRun4KCases(t *testing.T) {
	pt, _ := runTable(t, (*Table).MapRun4K)
	walk := func(vpn mem.VPN) WalkResult {
		t.Helper()
		w := pt.Walk(vpn)
		if !w.Present || w.Class != mem.Class4K {
			t.Fatalf("VPN %#x is not a present 4 KiB page: %+v", uint64(vpn), w)
		}
		return w
	}
	for _, c := range []struct {
		name string
		vpn  mem.VPN
		pfn  mem.PFN
	}{
		{"first page of a run across a leaf", 0x1000 - 100, 20000},
		{"last page across several leaves", 0x30000 - 3 + 3*entriesPerNode + 9, 40000 + 3*entriesPerNode + 9},
		{"leaf index 511", 0x5000 + 511, 50000},
		{"past leaf index 511", 0x5400 + 512 + 7, 50100 + 8},
		{"last page before a leaf boundary", 0x6200 - 1, 60000 + 499},
		{"last page of two whole leaves", 0x6800 + 2*entriesPerNode - 1, 61000 + 2*entriesPerNode - 1},
		{"run below a 2 MiB page", huge2MVPN - 1, 1<<16 - 1},
		{"run above a 2 MiB page", huge2MVPN + pages2M, 1<<16 + pages2M},
		{"remapped page", 0x1000 - 1, 90000 + 19},
	} {
		if w := walk(c.vpn); w.PFN != c.pfn {
			t.Errorf("%s: VPN %#x -> %#x, want %#x", c.name, uint64(c.vpn), uint64(w.PFN), uint64(c.pfn))
		}
	}
	if w := walk(0x1000 - 1); w.Entry.Flags() != FlagPresent|FlagUser|FlagNX {
		t.Errorf("remapped page flags %#x, want the second run's", uint64(w.Entry.Flags()))
	}
	for _, vpn := range []mem.VPN{0x6200, 0x6800 + 2*entriesPerNode, 0x7000} {
		if lines := pt.WalkLines(vpn); len(lines) == 4 {
			t.Errorf("VPN %#x: a leaf table exists past the end of a run", uint64(vpn))
		}
	}
	if w := pt.Walk(huge2MVPN + 3); w.Class != mem.Class2M {
		t.Errorf("2 MiB page next to runs walks as %v", w.Class)
	}
	// The anchors survive the run that made their entries present.
	if got := pt.AnchorContiguity(anchoredLeafVPN, 64); got != 100 {
		t.Errorf("anchor at leaf start = %d, want 100", got)
	}
	if got := pt.AnchorContiguity(anchoredLeafVPN+64, 64); got != 7 {
		t.Errorf("second anchor = %d, want 7", got)
	}
	if got := pt.AnchorContiguity(anchoredLeafVPN+8, 8); got != 3 {
		t.Errorf("short-distance anchor = %d, want 3", got)
	}
}

// TestMapRun4KFramePanic checks MapRun4K's frame-field panic: the same
// message as the Map4K loop's for the first frame past MaxPFN, raised
// before any entry is written; a run ending at MaxPFN maps.
func TestMapRun4KFramePanic(t *testing.T) {
	panicOf := func(mapRun mapRunFunc, pt *Table, pfn mem.PFN, pages uint64) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		mapRun(pt, 0x1000-2, pfn, pages, FlagWrite)
		return ""
	}
	for _, c := range []struct {
		pfn   mem.PFN
		pages uint64
	}{{MaxPFN - 2, 4}, {MaxPFN, 2}, {MaxPFN + 1, 1}, {MaxPFN + 5, 600}, {^mem.PFN(0) - 1, 5}} {
		pt := New()
		got := panicOf((*Table).MapRun4K, pt, c.pfn, c.pages)
		want := panicOf(map4KLoop, New(), c.pfn, c.pages)
		if got == "" || got != want {
			t.Errorf("MapRun4K(pfn %#x, %d pages) panic %q, Map4K loop %q", uint64(c.pfn), c.pages, got, want)
		}
		if s := pt.Stats(); s.Nodes != 1 || s.PTEWrites != 0 {
			t.Errorf("pfn %#x: panicking run changed the table: %+v", uint64(c.pfn), s)
		}
	}
	pt := New()
	if msg := panicOf((*Table).MapRun4K, pt, MaxPFN-3, 4); msg != "" {
		t.Fatalf("run ending at MaxPFN panicked: %s", msg)
	}
	if w := pt.Walk(0x1000 + 1); w.PFN != MaxPFN {
		t.Errorf("last page -> %#x, want MaxPFN", uint64(w.PFN))
	}
}
