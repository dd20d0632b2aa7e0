package pagetable

// Clone returns a deep copy of the table sharing no tables with t. Shard
// simulators each walk a private copy: Walk/WalkFast bump the stats
// counters, so sharing one table across goroutines would race even though
// translations themselves are reads. Table phys addresses are preserved so
// the detailed walk model sees identical cache lines from a clone.
func (t *Table) Clone() *Table {
	return &Table{root: cloneDir(t.root), stats: t.stats}
}

func cloneDir(d *dir) *dir {
	c := &dir{pte: d.pte, phys: d.phys}
	for i, ch := range &d.dirs {
		if ch != nil {
			c.dirs[i] = cloneDir(ch)
		}
	}
	for i, l := range &d.leaves {
		if l != nil {
			cl := *l
			c.leaves[i] = &cl
		}
	}
	return c
}
