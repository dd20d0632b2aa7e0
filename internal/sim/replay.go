package sim

import "hybridtlb/internal/trace"

// RunTrace replays a recorded access trace (see internal/trace and
// cmd/tracegen) through the configured scheme and mapping instead of
// generating accesses — the record/replay mode the paper's Pin-based
// methodology uses. The config's Workload supplies only the footprint
// default; WarmupAccesses and Accesses split and bound the replay, and
// a shorter trace ends the run early.
func RunTrace(cfg Config, src trace.Source) (Result, error) {
	return runTrace(cfg, src, driveAll)
}

// runTrace sets up one cell and drives src through it, or the
// workload's own generated trace when src is nil.
func runTrace(cfg Config, src trace.Source, driveFn driveFunc) (Result, error) {
	cfg = cfg.withDefaults()
	c, err := newCell(cfg)
	if err != nil {
		return Result{}, err
	}
	if n := cfg.WarmupAccesses + cfg.Accesses; src == nil {
		src = c.generator(n)
	} else {
		src = trace.Limit(src, n)
	}
	driveFn(c.m, c.proc, src, c.cfg, &c.res)
	return c.result(), nil
}
