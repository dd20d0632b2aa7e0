package sim

import "fmt"

// This file simulates time-shared cores: several processes round-robin on
// one core, and — as the paper notes for native x86 Linux (Section 3.3:
// "the native Linux kernel for x86 flushes the TLB on context switches")
// — every context switch flushes the TLBs and reloads the per-process
// anchor distance register alongside CR3. Context switching is what makes
// the whole-TLB flush of an anchor distance change "relatively minor".

// MultiProcessConfig parameterizes a time-shared simulation.
type MultiProcessConfig struct {
	// Processes are the co-scheduled simulations. Each runs its own
	// mapping and workload; Accesses applies per process.
	Processes []Config
	// QuantumInstructions is the scheduling quantum (instructions
	// between context switches).
	QuantumInstructions uint64
	// ASID models address-space-identifier-tagged TLBs (x86 PCID): the
	// kernel skips the TLB flush on context switches because entries are
	// tagged with their address space. The paper's baseline is the
	// untagged native-Linux behaviour (flush every switch).
	ASID bool
}

// MultiProcessResult reports a time-shared simulation.
type MultiProcessResult struct {
	// PerProcess holds each process's result, in configuration order.
	PerProcess []Result
	// ContextSwitches counts scheduler dispatches after the first of
	// each process; every one flushed the TLBs.
	ContextSwitches uint64
	// TotalMisses sums L2 TLB misses across processes.
	TotalMisses uint64
}

// RunMultiProcess time-shares the configured processes on one core: a
// round-robin over one batched drive per process, each dispatch running
// its drive for one quantum. Processes have no warmup, so every access
// counts, and dynamic anchor schemes re-select at their own epoch
// boundaries.
func RunMultiProcess(cfg MultiProcessConfig) (MultiProcessResult, error) {
	if len(cfg.Processes) == 0 {
		return MultiProcessResult{}, fmt.Errorf("sim: no processes")
	}
	if cfg.QuantumInstructions == 0 {
		return MultiProcessResult{}, fmt.Errorf("sim: zero scheduling quantum")
	}

	cells := make([]*cell, len(cfg.Processes))
	drives := make([]*drive, len(cfg.Processes))
	for i, pc := range cfg.Processes {
		c, err := processCell(pc, i)
		if err != nil {
			return MultiProcessResult{}, fmt.Errorf("sim: process %d: %w", i, err)
		}
		cells[i] = c
		drives[i] = newDrive(c.m, c.proc, c.generator(c.cfg.Accesses), c.cfg)
	}

	// A process's drive is finished and dropped when its trace runs dry.
	var out MultiProcessResult
	live := len(drives)
	var dispatches uint64
	for cur := 0; live > 0; cur = (cur + 1) % len(drives) {
		d := drives[cur]
		if d == nil {
			continue
		}
		// On dispatch the incoming process starts with cold TLBs unless
		// the TLBs are ASID-tagged: the kernel flushed on the switch and
		// restored CR3 plus the anchor distance register.
		if !cfg.ASID {
			d.m.Flush()
		}
		dispatches++
		// Processes have no interval action, so the drive cannot fail.
		if exhausted, _ := d.run(cfg.QuantumInstructions); exhausted {
			d.finish(&cells[cur].res)
			drives[cur] = nil
			live--
		}
	}
	for _, c := range cells {
		res := c.result()
		out.PerProcess = append(out.PerProcess, res)
		out.TotalMisses += res.Stats.Misses()
	}
	// The first dispatch of each process is creation, not a switch.
	out.ContextSwitches = dispatches - uint64(len(cells))
	return out, nil
}

// processCell sets up the i-th time-shared process: its mapping and its
// trace are seeded Seed+i, so processes get distinct mappings, and it has
// no warmup.
func processCell(pc Config, i int) (*cell, error) {
	pc = pc.withDefaults()
	pc.Seed += int64(i)
	pc.WarmupAccesses = 0
	return newCell(pc)
}
