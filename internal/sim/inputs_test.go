package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
)

// TestSharedInputsMatchRun holds cells run on one shared Inputs to Run
// and RunWithChurn, bit for bit: every scheme with dynamic and pinned
// distances, the detailed walk model, per-region anchors, an attached
// probe (same samples) and churn. The shared cells run concurrently, as
// a sweep's workers run them, so the race detector sees any write to
// the shared chunk list or trace; the inputs must equal a fresh build
// afterwards.
func TestSharedInputsMatchRun(t *testing.T) {
	base := equivCfg(t, mmu.Base, mapping.Medium, "mcf")
	type cellCase struct {
		name  string
		cfg   Config
		churn bool
	}
	var cases []cellCase
	for _, s := range mmu.All() {
		dyn := base
		dyn.Scheme = s
		cases = append(cases, cellCase{name: s.String(), cfg: dyn})
		if s.Policy().Anchors {
			fixed := dyn
			fixed.FixedDistance = 8
			cases = append(cases, cellCase{name: s.String() + "/d=8", cfg: fixed})
		}
	}
	walk := base
	walk.Scheme, walk.DetailedWalk = mmu.Anchor, true
	multi := base
	multi.Scheme, multi.MultiRegionAnchors = mmu.Anchor, true
	cases = append(cases,
		cellCase{name: "anchor/detailed-walk", cfg: walk},
		cellCase{name: "anchor/multi-region", cfg: multi},
	)
	for _, s := range []mmu.Scheme{mmu.THP, mmu.RMM, mmu.Anchor} {
		c := base
		c.Scheme = s
		cases = append(cases, cellCase{name: s.String() + "/churn", cfg: c, churn: true})
	}
	churnOf := func(c Config) ChurnConfig {
		return ChurnConfig{Config: c, ChurnIntervalInstructions: 2_000, ChurnPages: 64}
	}

	in, err := NewInputs(base)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res     Result
		churn   ChurnStats
		samples []ProbeSample
		err     error
	}
	// run simulates one case with a probe attached, on the shared inputs
	// or alone.
	run := func(c cellCase, shared bool) (o outcome) {
		cfg := c.cfg
		cfg.Probe = func(s ProbeSample) { o.samples = append(o.samples, s) }
		switch {
		case c.churn && shared:
			o.res, o.churn, o.err = in.RunWithChurn(churnOf(cfg))
		case c.churn:
			o.res, o.churn, o.err = RunWithChurn(churnOf(cfg))
		case shared:
			o.res, o.err = in.Run(cfg)
		default:
			o.res, o.err = Run(cfg)
		}
		return o
	}

	got := make([]outcome, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(c, true)
		}()
	}
	wg.Wait()

	for i, c := range cases {
		want := run(c, false)
		if want.err != nil || got[i].err != nil {
			t.Fatalf("%s: Run err %v, shared err %v", c.name, want.err, got[i].err)
		}
		if len(want.samples) == 0 {
			t.Fatalf("%s: probe never fired", c.name)
		}
		if c.churn && want.churn.Operations == 0 {
			t.Fatalf("%s: no churn operation fired", c.name)
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("%s: shared inputs diverged from an unshared run:\nalone:  %+v\nshared: %+v", c.name, want, got[i])
		}
	}

	fresh, err := NewInputs(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, fresh) {
		t.Error("running cells wrote to the shared inputs")
	}
}

// TestSharedInputsStreamLongTraces: Inputs hold a trace of at most
// MaxSharedRecords records; a longer one is left to each cell's own
// generator, and cells on such inputs — plain, per-region and churn —
// still equal Run and RunWithChurn bit for bit.
func TestSharedInputsStreamLongTraces(t *testing.T) {
	cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	cfg.Accesses, cfg.WarmupAccesses = MaxSharedRecords-1_000, 1_000
	in, err := NewInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.records) != MaxSharedRecords {
		t.Fatalf("a trace of exactly MaxSharedRecords holds %d records", len(in.records))
	}

	cfg.WarmupAccesses++
	if in, err = NewInputs(cfg); err != nil {
		t.Fatal(err)
	}
	if in.records != nil {
		t.Fatalf("a trace over MaxSharedRecords holds %d records", len(in.records))
	}
	multi := cfg
	multi.MultiRegionAnchors = true
	for _, c := range []Config{cfg, multi} {
		want, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("multi=%t: streamed shared cell diverged from Run:\nalone:  %+v\nshared: %+v", c.MultiRegionAnchors, want, got)
		}
	}
	cc := ChurnConfig{Config: cfg, ChurnIntervalInstructions: 20_000, ChurnPages: 64}
	wantRes, wantChurn, err := RunWithChurn(cc)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gotChurn, err := in.RunWithChurn(cc)
	if err != nil {
		t.Fatal(err)
	}
	if wantChurn.Operations == 0 {
		t.Fatal("no churn operation fired")
	}
	if !reflect.DeepEqual(wantRes, gotRes) || wantChurn != gotChurn {
		t.Error("streamed shared churn cell diverged from RunWithChurn")
	}
}

// TestSharedInputsRejectOtherKeys: a config whose inputs differ from the
// shared ones is refused before anything runs, whatever the entry point.
func TestSharedInputsRejectOtherKeys(t *testing.T) {
	cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	in, err := NewInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Accesses++
	if _, err := in.Run(other); err == nil || !strings.Contains(err.Error(), "differ from the shared inputs") {
		t.Errorf("Run on another key: err = %v", err)
	}
	if _, _, err := in.RunWithChurn(ChurnConfig{Config: other, ChurnIntervalInstructions: 1, ChurnPages: 1}); err == nil {
		t.Error("RunWithChurn accepted another key")
	}
	// The defaulted and zero forms of one config share their inputs.
	if _, err := in.Run(cfg.WithDefaults()); err != nil {
		t.Errorf("defaulted config refused: %v", err)
	}
}

// TestRunStaticIdealMatchesRun: the serial static ideal runs its probes
// on one shared Inputs, and each probe still equals its own Run.
func TestRunStaticIdealMatchesRun(t *testing.T) {
	cfg := equivCfg(t, mmu.Anchor, mapping.Low, "omnetpp")
	_, all, err := RunStaticIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range core.Distances() {
		c := cfg
		c.FixedDistance = d
		want, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, all[i]) {
			t.Errorf("distance %d: static-ideal probe differs from Run", d)
		}
	}
}
