package sim

import (
	"fmt"
	"reflect"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

func multiCfg(t *testing.T, quantum uint64, n int) MultiProcessConfig {
	t.Helper()
	spec, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Config, n)
	for i := range procs {
		procs[i] = Config{
			Scheme:         mmu.Anchor,
			Workload:       spec,
			Scenario:       mapping.Medium,
			FootprintPages: 1 << 14,
			Accesses:       60_000,
			Seed:           3,
		}
	}
	return MultiProcessConfig{Processes: procs, QuantumInstructions: quantum}
}

func TestRunMultiProcessBasic(t *testing.T) {
	res, err := RunMultiProcess(multiCfg(t, 50_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerProcess) != 2 {
		t.Fatalf("per-process results = %d", len(res.PerProcess))
	}
	for i, pr := range res.PerProcess {
		// The time-shared runner has no warmup phase: all accesses count.
		if pr.Stats.Accesses != 60_000 {
			t.Errorf("process %d accesses = %d", i, pr.Stats.Accesses)
		}
		if pr.Stats.Faults != 0 {
			t.Errorf("process %d faults = %d", i, pr.Stats.Faults)
		}
		if pr.Instructions == 0 {
			t.Errorf("process %d ran no instructions", i)
		}
	}
	if res.ContextSwitches == 0 {
		t.Error("no context switches recorded")
	}
	if res.TotalMisses != res.PerProcess[0].Stats.Misses()+res.PerProcess[1].Stats.Misses() {
		t.Error("total misses do not sum")
	}

	// An epoch short enough to cross several times per process: each
	// process reaches its own epoch boundaries, where the dynamic anchor
	// scheme re-selects and the probe observes. The mapping never
	// changes, so re-selection keeps the install-time distance.
	cfg := multiCfg(t, 50_000, 2)
	samples := make([][]ProbeSample, len(cfg.Processes))
	for i := range cfg.Processes {
		cfg.Processes[i].EpochInstructions = 100_000
		cfg.Processes[i].Probe = func(s ProbeSample) { samples[i] = append(samples[i], s) }
	}
	res, err = RunMultiProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.PerProcess {
		if len(samples[i]) < 2 {
			t.Errorf("process %d: %d epoch boundaries over %d instructions", i, len(samples[i]), pr.Instructions)
		}
		for j, s := range samples[i] {
			if s.Epoch != j+1 || s.Instructions < uint64(j+1)*100_000 || s.AnchorDistance != pr.AnchorDistance {
				t.Errorf("process %d sample %d = %+v, final distance %d", i, j, s, pr.AnchorDistance)
			}
		}
		if pr.DistanceChanges != 0 {
			t.Errorf("process %d: static mapping changed distance %d times", i, pr.DistanceChanges)
		}
		if len(pr.AnchorActions) == 0 {
			t.Errorf("process %d: no anchor actions reported", i)
		}
	}
}

// TestQuantumEffect: smaller scheduling quanta flush the TLBs more often,
// so misses must rise — the cost the paper's distance-change flush is
// compared against.
func TestQuantumEffect(t *testing.T) {
	coarse, err := RunMultiProcess(multiCfg(t, 200_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := RunMultiProcess(multiCfg(t, 5_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if fine.ContextSwitches <= coarse.ContextSwitches {
		t.Errorf("switches: fine %d <= coarse %d", fine.ContextSwitches, coarse.ContextSwitches)
	}
	if fine.TotalMisses <= coarse.TotalMisses {
		t.Errorf("misses: fine quantum %d <= coarse %d; flushes had no cost", fine.TotalMisses, coarse.TotalMisses)
	}
}

// TestMultiProcessIsolation: processes get distinct mappings (per-process
// seeds) and their translations never interfere.
func TestMultiProcessIsolation(t *testing.T) {
	res, err := RunMultiProcess(multiCfg(t, 30_000, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.PerProcess {
		if pr.Stats.Faults != 0 {
			t.Errorf("process %d faulted %d times", i, pr.Stats.Faults)
		}
	}
}

func TestMultiProcessValidation(t *testing.T) {
	if _, err := RunMultiProcess(MultiProcessConfig{}); err == nil {
		t.Error("empty process list accepted")
	}
	cfg := multiCfg(t, 0, 1)
	if _, err := RunMultiProcess(cfg); err == nil {
		t.Error("zero quantum accepted")
	}
}

// TestASIDAvoidsFlushCost: with ASID-tagged TLBs the context-switch
// flushes disappear, so the same schedule misses far less — quantifying
// what the paper's flush-on-switch assumption costs.
func TestASIDAvoidsFlushCost(t *testing.T) {
	flushed, err := RunMultiProcess(multiCfg(t, 10_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := multiCfg(t, 10_000, 2)
	cfg.ASID = true
	tagged, err := RunMultiProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tagged.TotalMisses >= flushed.TotalMisses {
		t.Errorf("ASID misses %d >= flushed %d", tagged.TotalMisses, flushed.TotalMisses)
	}
	// Correctness unaffected.
	for i, pr := range tagged.PerProcess {
		if pr.Stats.Faults != 0 {
			t.Errorf("process %d faulted under ASID", i)
		}
	}
}

// TestMultiProcessEquivalence holds RunMultiProcess, a round-robin over
// batched drives, byte-identical to the record-at-a-time scheduler loop
// it replaced, with and without ASID-tagged TLBs and for 2 and 3
// processes. The traces stay inside one re-selection epoch, which the
// old loop never crossed. One quantum equals process 0's whole trace, so
// its first dispatch ends exactly on its last record: the old loop then
// dispatches it once more, finds it exhausted and counts that switch,
// and the drive must agree.
func TestMultiProcessEquivalence(t *testing.T) {
	for _, n := range []int{2, 3} {
		cfg := multiCfg(t, 0, n)
		for i := range cfg.Processes {
			cfg.Processes[i].Accesses = 20_000
		}
		// Mixed schemes: process 1 runs base, the rest anchor.
		cfg.Processes[1].Scheme = mmu.Base
		c, err := processCell(cfg.Processes[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		var whole uint64
		for _, r := range trace.Collect(c.generator(c.cfg.Accesses), 0) {
			whole += uint64(r.Instrs)
		}
		for _, quantum := range []uint64{7_000, 33_333, whole} {
			for _, asid := range []bool{false, true} {
				cfg.QuantumInstructions, cfg.ASID = quantum, asid
				name := fmt.Sprintf("n=%d/quantum=%d/asid=%v", n, quantum, asid)
				if quantum == whole {
					name = fmt.Sprintf("n=%d/quantum=process-0-trace/asid=%v", n, asid)
				}
				t.Run(name, func(t *testing.T) {
					want, err := runMultiProcessSerial(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunMultiProcess(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("multi-process result diverged:\nserial:  %+v\nbatched: %+v", want, got)
					}
				})
			}
		}
	}
}

// runMultiProcessSerial is the record-at-a-time scheduler loop
// RunMultiProcess ran before it became a round-robin over batched
// drives, kept as the golden reference. It sets up and reports through
// the same cells; it never re-selects the anchor distance.
func runMultiProcessSerial(cfg MultiProcessConfig) (MultiProcessResult, error) {
	type procState struct {
		c            *cell
		gen          trace.Source
		instructions uint64
		done         bool
	}
	states := make([]*procState, 0, len(cfg.Processes))
	for i, pc := range cfg.Processes {
		c, err := processCell(pc, i)
		if err != nil {
			return MultiProcessResult{}, err
		}
		states = append(states, &procState{c: c, gen: c.generator(c.cfg.Accesses)})
	}

	var out MultiProcessResult
	live := len(states)
	var dispatches uint64
	for cur := 0; live > 0; cur = (cur + 1) % len(states) {
		st := states[cur]
		if st.done {
			continue
		}
		if !cfg.ASID {
			st.c.m.Flush()
		}
		dispatches++

		var ranInQuantum uint64
		for ranInQuantum < cfg.QuantumInstructions {
			rec, ok := st.gen.Next()
			if !ok {
				st.done = true
				live--
				break
			}
			st.c.m.Translate(rec.VPN)
			st.instructions += uint64(rec.Instrs)
			ranInQuantum += uint64(rec.Instrs)
		}
	}

	for _, st := range states {
		st.c.res.Stats = st.c.m.Stats()
		st.c.res.Instructions = st.instructions
		res := st.c.result()
		out.PerProcess = append(out.PerProcess, res)
		out.TotalMisses += res.Stats.Misses()
	}
	out.ContextSwitches = dispatches - uint64(len(states))
	return out, nil
}
