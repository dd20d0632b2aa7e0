package pagetable

import (
	"fmt"
	"sync"

	"hybridtlb/internal/mem"
)

// Level identifies a level of the 4-level radix tree, from the root down.
type Level int

// The four paging levels of classical x86-64 4-level paging.
const (
	LevelPML4 Level = iota
	LevelPDPT
	LevelPD
	LevelPT
	numLevels
)

// entriesPerNode is the radix of every level (512 8-byte entries per 4 KiB
// table page).
const entriesPerNode = 512

// EntriesPerCacheBlock is how many PTEs share one 64-byte cache block; the
// distributed contiguity encoding may span this many entries.
const EntriesPerCacheBlock = 8

// dir is an interior (PML4, PDPT or PD) table page. A present entry that
// is not a huge-page leaf points to the next level: dirs holds the child
// tables below PML4 and PDPT, leaves those below PD.
type dir struct {
	pte    [entriesPerNode]PTE
	dirs   [entriesPerNode]*dir
	leaves [entriesPerNode]*leaf
	// phys is the synthetic physical address of this table page, used by
	// the detailed walk-latency model to derive the cache lines a
	// hardware walker would touch.
	phys mem.PhysAddr
}

// leaf is one PT-level table page: its 512 4 KiB entries and its
// synthetic address. It holds no pointers, so the GC does not scan it.
// The address header also keeps leaves off a 4 KiB allocation stride:
// exactly page-sized leaves would all start page-aligned, and walks that
// hit the same entry index in many leaves would then share one host L1
// cache set.
type leaf struct {
	pte  [entriesPerNode]PTE
	phys mem.PhysAddr
}

// tableRegionBase is where page table pages live in the synthetic
// physical address space: a high region far above any mapped frame, so
// walker lines never alias workload data.
const tableRegionBase mem.PhysAddr = 1 << 46

// Stats counts page table maintenance work, used for the anchor-distance
// change cost model of Section 3.3.
type Stats struct {
	Nodes     uint64 // table pages allocated
	PTEWrites uint64 // leaf entry writes (map/unmap/anchor updates)
	PTEReads  uint64 // leaf entries read by scans (ScanRun, ReadBlock, ComputeContiguity)
	Walks     uint64 // full translations performed via Walk/WalkFast
}

// Table is a four-level page table supporting 4 KiB and 2 MiB mappings and
// the paper's anchor-entry contiguity encoding.
type Table struct {
	root  *dir
	stats Stats
}

// New creates an empty page table.
func New() *Table {
	t := &Table{root: &dir{phys: tableRegionBase}}
	t.stats.Nodes = 1
	return t
}

// Stats returns the accumulated maintenance counters.
func (t *Table) Stats() Stats { return t.stats }

// indexAt extracts the radix index of vpn at the given level.
// The VPN is a 4 KiB page number, so the PT index is its low 9 bits.
func indexAt(vpn mem.VPN, l Level) int {
	shift := uint(9 * (int(LevelPT) - int(l)))
	return int(uint64(vpn)>>shift) & (entriesPerNode - 1)
}

// interiorEntry is an interior entry pointing to a child table.
const interiorEntry = FlagPresent | FlagWrite | FlagUser

// newTablePhys counts a newly allocated table page and returns its
// synthetic address. Table pages take consecutive pages of the table
// region in allocation order, so a table's address depends only on the
// order in which the mapping calls that built it first touched each
// table.
func (t *Table) newTablePhys() mem.PhysAddr {
	phys := tableRegionBase + mem.PhysAddr(t.stats.Nodes)*mem.PhysAddr(mem.Size4K)
	t.stats.Nodes++
	return phys
}

// ensureDir descends from the root to the interior table at level stop
// (LevelPDPT or LevelPD) covering vpn, allocating missing tables.
func (t *Table) ensureDir(vpn mem.VPN, stop Level) *dir {
	d := t.root
	for l := LevelPML4; l < stop; l++ {
		i := indexAt(vpn, l)
		if d.dirs[i] == nil {
			d.dirs[i] = &dir{phys: t.newTablePhys()}
			d.pte[i] = interiorEntry
		}
		d = d.dirs[i]
	}
	return d
}

// ensureLeaf returns the leaf table covering vpn, allocating the path to
// it.
func (t *Table) ensureLeaf(vpn mem.VPN) *leaf {
	d := t.ensureDir(vpn, LevelPD)
	i := indexAt(vpn, LevelPD)
	if d.leaves[i] == nil {
		l, _ := leafPool.Get().(*leaf)
		if l == nil {
			l = new(leaf)
		} else {
			*l = leaf{}
		}
		l.phys = t.newTablePhys()
		d.leaves[i] = l
		d.pte[i] = interiorEntry
	}
	return d.leaves[i]
}

// leafPool holds the leaves of released tables for the tables built
// after them. A sweep builds and drops one page table per cell, and
// leaves are nearly all of a table: a 2M-page footprint maps 4096 of
// them (16 MiB). Reusing them spares the allocator and the GC a table's
// worth of fresh pages per cell.
var leafPool sync.Pool

// Release hands the table's leaves to tables built later. The table
// must not be used afterwards, nor any reference into it.
func (t *Table) Release() { releaseDir(t.root, LevelPML4) }

// releaseDir pools the leaves below d, a table at level l.
func releaseDir(d *dir, l Level) {
	if l == LevelPD {
		for i, lf := range d.leaves {
			if lf != nil {
				leafPool.Put(lf)
				d.leaves[i] = nil
			}
		}
		return
	}
	for _, c := range d.dirs {
		if c != nil {
			releaseDir(c, l+1)
		}
	}
}

// dirAt returns the existing interior table at level stop covering vpn,
// or nil where a table on the way is missing.
func (t *Table) dirAt(vpn mem.VPN, stop Level) *dir {
	d := t.root
	for l := LevelPML4; l < stop && d != nil; l++ {
		d = d.dirs[indexAt(vpn, l)]
	}
	return d
}

// leafAt returns the leaf table containing vpn's 4 KiB entry, or nil.
func (t *Table) leafAt(vpn mem.VPN) *leaf {
	if d := t.dirAt(vpn, LevelPD); d != nil {
		return d.leaves[indexAt(vpn, LevelPD)]
	}
	return nil
}

// leafFlags is the flag part of a 4 KiB leaf entry mapped with flags.
func leafFlags(flags PTE) PTE { return flags&FlagMask&^FlagHuge | FlagPresent }

// Map4K installs a 4 KiB mapping vpn -> pfn with the given flags.
// FlagPresent is implied.
func (t *Table) Map4K(vpn mem.VPN, pfn mem.PFN, flags PTE) {
	l := t.ensureLeaf(vpn)
	i := indexAt(vpn, LevelPT)
	// Preserve previously stored ignored bits (anchor contiguity written
	// before a neighbouring page was mapped).
	l.pte[i] = leafFlags(flags).WithPFN(pfn) | l.pte[i]&ignMask
	t.stats.PTEWrites++
}

// MapRun4K maps the physically contiguous run vpn+k -> pfn+k, k < pages,
// as 4 KiB pages with the given flags. It has the effect of a Map4K loop
// over the run: the same entries, each keeping its ignored bits; the same
// PTEWrites; and the same table pages, allocated in the same order and so
// at the same synthetic addresses. It descends the tree once per leaf
// table the run touches and fills that leaf's share of the run in one
// pass. A frame beyond MaxPFN panics as in Map4K, but before any entry is
// written.
func (t *Table) MapRun4K(vpn mem.VPN, pfn mem.PFN, pages uint64, flags PTE) {
	if pages == 0 {
		return
	}
	if last := pfn + mem.PFN(pages-1); last < pfn || last > MaxPFN {
		panic(frameOverflow(max(pfn, MaxPFN+1)))
	}
	e := leafFlags(flags).WithPFN(pfn)
	for pages > 0 {
		l := t.ensureLeaf(vpn)
		i := indexAt(vpn, LevelPT)
		n := min(pages, uint64(entriesPerNode-i))
		run := l.pte[i : i+int(n)]
		for j := range run {
			run[j] = e | run[j]&ignMask
			e += 1 << pfnShift
		}
		vpn += mem.VPN(n)
		pages -= n
		t.stats.PTEWrites += n
	}
}

// Map2M installs a 2 MiB mapping. vpn and pfn must be 512-page aligned.
func (t *Table) Map2M(vpn mem.VPN, pfn mem.PFN, flags PTE) error {
	if !vpn.IsAligned(mem.PagesPer2M) || !pfn.IsAligned(mem.PagesPer2M) {
		return fmt.Errorf("pagetable: unaligned 2M mapping vpn=%#x pfn=%#x", uint64(vpn), uint64(pfn))
	}
	d := t.ensureDir(vpn, LevelPD)
	i := indexAt(vpn, LevelPD)
	if d.leaves[i] != nil {
		return fmt.Errorf("pagetable: 2M mapping at vpn=%#x overlaps existing 4K table", uint64(vpn))
	}
	d.pte[i] = ((flags & FlagMask) | FlagPresent | FlagHuge).WithPFN(pfn)
	t.stats.PTEWrites++
	return nil
}

// Map1G installs a 1 GiB mapping at the PDPT level. vpn and pfn must be
// 262144-page aligned. The paper's evaluation does not exercise 1 GiB
// pages (commercial parts give them a separate, smaller L2 TLB), but the
// substrate supports them for completeness.
func (t *Table) Map1G(vpn mem.VPN, pfn mem.PFN, flags PTE) error {
	if !vpn.IsAligned(mem.PagesPer1G) || !pfn.IsAligned(mem.PagesPer1G) {
		return fmt.Errorf("pagetable: unaligned 1G mapping vpn=%#x pfn=%#x", uint64(vpn), uint64(pfn))
	}
	d := t.ensureDir(vpn, LevelPDPT)
	i := indexAt(vpn, LevelPDPT)
	if d.dirs[i] != nil {
		return fmt.Errorf("pagetable: 1G mapping at vpn=%#x overlaps existing tables", uint64(vpn))
	}
	d.pte[i] = ((flags & FlagMask) | FlagPresent | FlagHuge).WithPFN(pfn)
	t.stats.PTEWrites++
	return nil
}

// Collapse2M replaces the 4 KiB page table page covering base with a
// single 2 MiB mapping — huge-page promotion (khugepaged). base and pfn
// must be 512-page aligned and a 4 KiB table must exist there; its
// entries are discarded wholesale.
func (t *Table) Collapse2M(base mem.VPN, pfn mem.PFN, flags PTE) error {
	if !base.IsAligned(mem.PagesPer2M) || !pfn.IsAligned(mem.PagesPer2M) {
		return fmt.Errorf("pagetable: unaligned 2M collapse vpn=%#x pfn=%#x", uint64(base), uint64(pfn))
	}
	d := t.dirAt(base, LevelPD)
	if d == nil {
		return fmt.Errorf("pagetable: no table to collapse at vpn=%#x", uint64(base))
	}
	i := indexAt(base, LevelPD)
	if d.leaves[i] == nil {
		return fmt.Errorf("pagetable: no 4K table under vpn=%#x", uint64(base))
	}
	d.leaves[i] = nil
	d.pte[i] = ((flags & FlagMask) | FlagPresent | FlagHuge).WithPFN(pfn)
	t.stats.PTEWrites++
	t.stats.Nodes--
	return nil
}

// Unmap removes the mapping covering vpn (4 KiB entry, or the whole 2 MiB
// entry if vpn lies inside a huge page). It reports whether a mapping was
// removed.
func (t *Table) Unmap(vpn mem.VPN) bool {
	d := t.root.dirs[indexAt(vpn, LevelPML4)]
	if d == nil {
		return false
	}
	i := indexAt(vpn, LevelPDPT)
	if t.unmapHuge(d, i) {
		return true
	}
	if d = d.dirs[i]; d == nil {
		return false
	}
	i = indexAt(vpn, LevelPD)
	if t.unmapHuge(d, i) {
		return true
	}
	l := d.leaves[i]
	i = indexAt(vpn, LevelPT)
	if l == nil || !l.pte[i].Present() {
		return false
	}
	// Clear the entry but keep nothing: contiguity bits of an unmapped
	// page are stale by definition and the OS rewrites anchors after
	// unmap (Section 3.3, "Updating Memory Mapping").
	l.pte[i] = 0
	t.stats.PTEWrites++
	return true
}

// unmapHuge clears d.pte[i] if it is a 2 MiB or 1 GiB leaf and reports
// whether it was.
func (t *Table) unmapHuge(d *dir, i int) bool {
	if e := d.pte[i]; !e.Present() || !e.Huge() {
		return false
	}
	d.pte[i] = 0
	t.stats.PTEWrites++
	return true
}

// WalkResult describes the outcome of a page walk.
type WalkResult struct {
	Present bool
	PFN     mem.PFN       // frame of the 4 KiB page containing the request
	Class   mem.PageClass // Class4K or Class2M
	Entry   PTE           // the leaf entry found
	// BasePFN/BaseVPN give the start of the mapping (equal to PFN/vpn for
	// 4 KiB pages; 512-aligned for 2 MiB pages).
	BaseVPN mem.VPN
	BasePFN mem.PFN
	// Levels is the number of table levels touched (memory accesses the
	// hardware walker would issue), 2..4.
	Levels int
}

// Walk translates vpn, descending the radix tree like the hardware walker.
func (t *Table) Walk(vpn mem.VPN) WalkResult {
	t.stats.Walks++
	d := t.root.dirs[indexAt(vpn, LevelPML4)]
	if d == nil {
		return WalkResult{Levels: 1}
	}
	i := indexAt(vpn, LevelPDPT)
	if e := d.pte[i]; e.Present() && e.Huge() {
		return hugeWalk(vpn, e, mem.Class1G, 2)
	}
	if d = d.dirs[i]; d == nil {
		return WalkResult{Levels: 2}
	}
	i = indexAt(vpn, LevelPD)
	if e := d.pte[i]; e.Present() && e.Huge() {
		return hugeWalk(vpn, e, mem.Class2M, 3)
	}
	l := d.leaves[i]
	if l == nil {
		return WalkResult{Levels: 3}
	}
	e := l.pte[indexAt(vpn, LevelPT)]
	if !e.Present() {
		return WalkResult{Levels: 4}
	}
	return WalkResult{
		Present: true,
		PFN:     e.PFN(),
		Class:   mem.Class4K,
		Entry:   e,
		BaseVPN: vpn,
		BasePFN: e.PFN(),
		Levels:  4,
	}
}

// hugeWalk is the result of a walk of vpn that ends at the huge-page leaf
// e of the given class after touching levels tables.
func hugeWalk(vpn mem.VPN, e PTE, class mem.PageClass, levels int) WalkResult {
	base := vpn.AlignDown(class.BasePages())
	return WalkResult{
		Present: true,
		PFN:     e.PFN() + mem.PFN(vpn-base),
		Class:   class,
		Entry:   e,
		BaseVPN: base,
		BasePFN: e.PFN(),
		Levels:  levels,
	}
}

// WalkFast is Walk for the flat-latency translation hot path: the same
// traversal, huge-page checks, and Walks accounting, but returning only
// the fields that path consumes — as scalars, so the result travels in
// registers instead of a WalkResult copy. A zero return with present ==
// false corresponds to a non-present WalkResult.
//
//tlbvet:hotpath
func (t *Table) WalkFast(vpn mem.VPN) (pfn mem.PFN, class mem.PageClass, baseVPN mem.VPN, basePFN mem.PFN, present bool) {
	t.stats.Walks++
	d := t.root.dirs[indexAt(vpn, LevelPML4)]
	if d == nil {
		return
	}
	i := indexAt(vpn, LevelPDPT)
	if e := d.pte[i]; e.Present() && e.Huge() {
		// PagesPer1G, not Class1G.BasePages(): the method inlines the
		// Shift() switch whose panic string is a (dead) heap escape,
		// which allocgate would flag inside this hotpath region.
		base := vpn.AlignDown(mem.PagesPer1G)
		return e.PFN() + mem.PFN(vpn-base), mem.Class1G, base, e.PFN(), true
	}
	if d = d.dirs[i]; d == nil {
		return
	}
	i = indexAt(vpn, LevelPD)
	if e := d.pte[i]; e.Present() && e.Huge() {
		base := vpn.AlignDown(mem.PagesPer2M)
		return e.PFN() + mem.PFN(vpn-base), mem.Class2M, base, e.PFN(), true
	}
	l := d.leaves[i]
	if l == nil {
		return
	}
	e := l.pte[indexAt(vpn, LevelPT)]
	if !e.Present() {
		return
	}
	return e.PFN(), mem.Class4K, vpn, e.PFN(), true
}

// ScanRun extends the present 4 KiB mapping vpn -> pfn into the longest
// physically contiguous run around it, forward first and then backward,
// holding the run to at most maxPages pages (a run is never shorter than
// the page itself). The run stops at a non-present entry, a frame that
// does not continue the run, or a missing leaf table — a hole or a
// 2 MiB/1 GiB mapping — exactly where a per-page Walk would stop on its
// Present/Class4K/PFN check. It reads the 512-entry leaf array directly
// and descends the tree again only to cross a leaf boundary. Each leaf
// entry read counts in PTEReads; none counts as a Walk. A vpn outside
// every 4 KiB leaf table yields the one-page run.
//
//tlbvet:hotpath
func (t *Table) ScanRun(vpn mem.VPN, pfn mem.PFN, maxPages uint64) (start mem.VPN, startPFN mem.PFN, pages uint64) {
	l := t.leafAt(vpn)
	if l == nil {
		return vpn, pfn, 1
	}
	i := indexAt(vpn, LevelPT)
	// Forward first: streaming accesses move upward, so the budget is
	// spent on pages that have not been translated yet.
	pages = t.scanForward(l, i, vpn, pfn, maxPages)
	start, startPFN = vpn, pfn
	reads := uint64(0)
	for pages < maxPages && start > 0 {
		if i == 0 {
			if l = t.leafAt(start - 1); l == nil {
				break
			}
			i = entriesPerNode
		}
		i--
		reads++
		if e := l.pte[i]; !e.Present() || e.PFN() != startPFN-1 {
			break
		}
		start--
		startPFN--
		pages++
	}
	t.stats.PTEReads += reads
	return start, startPFN, pages
}

// scanForward returns the length of the contiguous run starting at the
// present entry l.pte[i] (for vpn -> pfn), capped at maxPages, counting
// the entries it reads after the first in PTEReads.
//
//tlbvet:hotpath
func (t *Table) scanForward(l *leaf, i int, vpn mem.VPN, pfn mem.PFN, maxPages uint64) uint64 {
	pages, reads := uint64(1), uint64(0)
	for next := pfn + 1; pages < maxPages; next++ {
		vpn++
		if i++; i == entriesPerNode {
			if l = t.leafAt(vpn); l == nil {
				break
			}
			i = 0
		}
		reads++
		if e := l.pte[i]; !e.Present() || e.PFN() != next {
			break
		}
		pages++
	}
	t.stats.PTEReads += reads
	return pages
}

// ReadBlock returns the EntriesPerCacheBlock leaf entries of the 64-byte
// PTE cache block containing vpn — the line a walk of vpn has already
// fetched — in VPN order from the block's aligned base. An aligned block
// never crosses a leaf table, so this is one descent. Every entry is zero
// (not present) when no 4 KiB leaf table covers vpn. The entries count in
// PTEReads.
//
//tlbvet:hotpath
func (t *Table) ReadBlock(vpn mem.VPN) (block [EntriesPerCacheBlock]PTE) {
	l := t.leafAt(vpn)
	if l == nil {
		return block
	}
	i := indexAt(vpn, LevelPT) &^ (EntriesPerCacheBlock - 1)
	copy(block[:], l.pte[i:i+EntriesPerCacheBlock])
	t.stats.PTEReads += EntriesPerCacheBlock
	return block
}

// Range calls fn for every present 4 KiB leaf entry in ascending VPN order.
// 2 MiB mappings are reported once with their base VPN and class Class2M.
// fn returning false stops the iteration.
func (t *Table) Range(fn func(vpn mem.VPN, e PTE, class mem.PageClass) bool) {
	rangeDir(t.root, 0, LevelPML4, fn)
}

func rangeDir(d *dir, baseVPN mem.VPN, l Level, fn func(mem.VPN, PTE, mem.PageClass) bool) bool {
	span := mem.VPN(1) << uint(9*(int(LevelPT)-int(l)))
	for i := 0; i < entriesPerNode; i++ {
		vpn := baseVPN + mem.VPN(i)*span
		switch e := d.pte[i]; {
		case l != LevelPML4 && e.Present() && e.Huge():
			class := mem.Class2M
			if l == LevelPDPT {
				class = mem.Class1G
			}
			if !fn(vpn, e, class) {
				return false
			}
		case l == LevelPD && d.leaves[i] != nil:
			if !rangeLeaf(d.leaves[i], vpn, fn) {
				return false
			}
		case l < LevelPD && d.dirs[i] != nil:
			if !rangeDir(d.dirs[i], vpn, l+1, fn) {
				return false
			}
		}
	}
	return true
}

func rangeLeaf(lf *leaf, baseVPN mem.VPN, fn func(mem.VPN, PTE, mem.PageClass) bool) bool {
	for i := range lf.pte {
		if e := lf.pte[i]; e.Present() && !fn(baseVPN+mem.VPN(i), e, mem.Class4K) {
			return false
		}
	}
	return true
}

// WalkLines returns the physical addresses of the page table entries a
// hardware walk of vpn touches, from the root down, stopping at the leaf
// (or at the first non-present level). The detailed walk-latency model
// feeds these through a cache hierarchy.
func (t *Table) WalkLines(vpn mem.VPN) []mem.PhysAddr {
	out := make([]mem.PhysAddr, 0, int(numLevels))
	d := t.root
	for l := LevelPML4; l < LevelPD; l++ {
		i := indexAt(vpn, l)
		out = append(out, d.phys+mem.PhysAddr(i*8))
		if e := d.pte[i]; l == LevelPDPT && e.Present() && e.Huge() {
			return out
		}
		if d = d.dirs[i]; d == nil {
			return out
		}
	}
	i := indexAt(vpn, LevelPD)
	out = append(out, d.phys+mem.PhysAddr(i*8))
	if l := d.leaves[i]; l != nil {
		out = append(out, l.phys+mem.PhysAddr(indexAt(vpn, LevelPT)*8))
	}
	return out
}
