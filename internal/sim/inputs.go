package sim

import (
	"fmt"

	"hybridtlb/internal/trace"
)

// This file shares a simulation's scheme-independent inputs between
// cells, the way the paper records one Pin trace per benchmark and
// replays it against every TLB configuration. A cell's generated chunk
// list and its access trace depend only on its input key; the scheme,
// the hardware and every other knob act on them afterwards. Cells that
// share a key can therefore install one chunk list and replay one trace
// instead of each generating their own, with results identical to Run.

// InputKey returns a canonical serialization of the part of the
// defaulted config that a cell's generated inputs depend on: the
// workload (its public parameters, as the sweep cache key identifies
// it), the mapping scenario, footprint, seed and pressure, and the trace
// length. Configs with equal keys generate the same chunk list and the
// same trace.
func (c Config) InputKey() string {
	c = c.withDefaults()
	w := c.Workload
	return fmt.Sprintf("wl=%s/%d/%d/%g/%t|sc=%d|fp=%d|seed=%d|press=%g|acc=%d|warm=%d",
		w.Name, w.FootprintPages, w.MeanInstrsPerAccess, w.WriteFraction, w.FineGrainedAlloc,
		c.Scenario, c.FootprintPages, c.Seed, c.Pressure, c.Accesses, c.WarmupAccesses)
}

// MaxSharedRecords bounds the trace Inputs hold in memory: 2^18 records,
// 4 MiB at 16 bytes a record. A longer trace is not held; each cell on
// the inputs streams it from the workload's generator, as an unshared
// cell does, and shares only the mapping. A sweep engine that keeps one
// input set per worker plus one therefore holds at most 4 MiB of trace
// per worker, whatever the trace length it accepts.
const MaxSharedRecords = 1 << 18

// Inputs are one input key's generated mapping, prepared for install,
// and — when it is at most MaxSharedRecords long — its trace,
// WarmupAccesses+Accesses records, so any number of cells can install
// and replay them. Inputs are read-only once built: cells on different
// goroutines may share them.
type Inputs struct {
	key     string
	mp      preparedMapping
	records []trace.Record // nil when the trace is streamed per cell
}

// NewInputs generates the inputs of cfg's input key.
func NewInputs(cfg Config) (*Inputs, error) {
	cfg = cfg.withDefaults()
	mp, err := prepareMapping(cfg)
	if err != nil {
		return nil, err
	}
	in := &Inputs{key: cfg.InputKey(), mp: mp}
	if n := cfg.WarmupAccesses + cfg.Accesses; n <= MaxSharedRecords {
		// One ReadBatch fills the whole trace: a generator only stops
		// short when its records run out.
		records := make([]trace.Record, n)
		gen := cfg.Workload.NewGenerator(mp.startVPN, cfg.FootprintPages, n, cfg.Seed)
		in.records = records[:gen.ReadBatch(records)]
	}
	return in, nil
}

// check defaults cfg and rejects it unless its inputs are these.
func (in *Inputs) check(cfg Config) (Config, error) {
	cfg = cfg.withDefaults()
	if k := cfg.InputKey(); k != in.key {
		return cfg, fmt.Errorf("sim: config's inputs (%v) differ from the shared inputs (%v)", k, in.key)
	}
	return cfg, nil
}

// Run simulates cfg on the shared inputs: the same result as Run(cfg),
// without generating the mapping or the trace again. It fails if cfg's
// input key is not the inputs' key.
func (in *Inputs) Run(cfg Config) (Result, error) {
	cfg, err := in.check(cfg)
	if err != nil {
		return Result{}, err
	}
	return runCell(cfg, in, nil, driveAll)
}

// RunWithChurn is RunWithChurn(cfg) on the shared inputs. The churn
// remaps act on the cell's own process; the shared chunk list and trace
// are never written.
func (in *Inputs) RunWithChurn(cfg ChurnConfig) (Result, ChurnStats, error) {
	base, err := in.check(cfg.Config)
	if err != nil {
		return Result{}, ChurnStats{}, err
	}
	cfg.Config = base
	return runChurn(cfg, in)
}
