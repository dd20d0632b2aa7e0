package benchparse

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: hybridtlb
cpu: AMD EPYC 7B13
BenchmarkSimulateAnchor-8   	       2	 512345678 ns/op
BenchmarkTranslateHotPath/base/serial-8     	 8123456	       131.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkTranslateHotPath/base/batched-8    	 9513040	        95.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkTranslateHotPath/anchor/serial-8   	 7000000	       157.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkTranslateHotPath/anchor/batched-8  	 9800000	       108.4 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	hybridtlb	42.1s
`

func TestParse(t *testing.T) {
	entries, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("parsed %d entries, want 5", len(entries))
	}
	if e := entries[0]; e.Name != "SimulateAnchor" || e.Iterations != 2 || e.HasMem {
		t.Errorf("entry 0 = %+v, want SimulateAnchor without mem columns", e)
	}
	if e := entries[2]; e.Name != "TranslateHotPath/base/batched" ||
		e.NsPerOp != 95.2 || e.AllocsPerOp != 0 || !e.HasMem {
		t.Errorf("entry 2 = %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Error("input without benchmark lines parsed without error")
	}
}

func TestPipeline(t *testing.T) {
	entries, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Pipeline(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 {
		t.Fatalf("schemes = %v, want base and anchor", rep.Schemes)
	}
	got := rep.Schemes["anchor"]["batched"]
	want := Variant{NsPerAccess: 108.4, Iterations: 9_800_000}
	if got != want {
		t.Errorf("anchor/batched = %+v, want %+v", got, want)
	}
	// The unrelated SimulateAnchor row must not leak into the report.
	if _, ok := rep.Schemes["SimulateAnchor"]; ok {
		t.Error("non-hot-path benchmark leaked into the pipeline report")
	}

	// The artifact bytes must be stable: encoding/json sorts map keys.
	a, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("report serialization is not deterministic")
	}
	if !strings.Contains(string(a), `"ns_per_access":108.4`) {
		t.Errorf("JSON missing expected field: %s", a)
	}
}

func TestPipelineRequiresBenchmem(t *testing.T) {
	noMem := `BenchmarkTranslateHotPath/base/serial-8 100 131.6 ns/op
`
	entries, err := Parse(strings.NewReader(noMem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pipeline(entries); err == nil || !strings.Contains(err.Error(), "benchmem") {
		t.Errorf("missing -benchmem columns not rejected: %v", err)
	}
}

func TestPipelineRejectsMalformedRow(t *testing.T) {
	entries := []Entry{{Name: "TranslateHotPath/justscheme", HasMem: true}}
	if _, err := Pipeline(entries); err == nil {
		t.Error("scheme-only row not rejected")
	}
	if _, err := Pipeline([]Entry{{Name: "Other"}}); err == nil {
		t.Error("input without hot-path rows not rejected")
	}
}

func TestRequireZeroAllocs(t *testing.T) {
	rep := PipelineReport{Schemes: map[string]map[string]Variant{
		"anchor": {"serial": {AllocsPerAccess: 3}, "batched": {}},
		"base":   {"serial": {AllocsPerAccess: 2}, "batched": {}},
	}}
	if err := RequireZeroAllocs(rep, "batched"); err != nil {
		t.Errorf("alloc-free batched variants rejected: %v", err)
	}

	// Serial variants allocate by design; only the named variant gates.
	if err := RequireZeroAllocs(rep, "serial"); err == nil {
		t.Error("allocating serial variant passed the zero-alloc gate")
	}

	rep.Schemes["colt"] = map[string]Variant{"batched": {AllocsPerAccess: 1, BytesPerAccess: 48}}
	err := RequireZeroAllocs(rep, "batched")
	if err == nil || !strings.Contains(err.Error(), "colt/batched") {
		t.Errorf("allocating batched variant not named in error: %v", err)
	}

	// Bytes without allocs (amortized growth) still fails the proof.
	rep.Schemes["colt"] = map[string]Variant{"batched": {BytesPerAccess: 8}}
	if err := RequireZeroAllocs(rep, "batched"); err == nil {
		t.Error("nonzero bytes/access passed the zero-alloc gate")
	}

	// A scheme missing the gated variant cannot claim the proof.
	rep.Schemes["colt"] = map[string]Variant{"serial": {}}
	if err := RequireZeroAllocs(rep, "batched"); err == nil {
		t.Error("scheme without a batched variant passed the zero-alloc gate")
	}
}

func baselineReport(ns map[string]float64) PipelineReport {
	rep := PipelineReport{Benchmark: pipelineBench, Unit: "access",
		Schemes: map[string]map[string]Variant{}}
	for cell, v := range ns {
		scheme, variant, _ := strings.Cut(cell, "/")
		if rep.Schemes[scheme] == nil {
			rep.Schemes[scheme] = map[string]Variant{}
		}
		rep.Schemes[scheme][variant] = Variant{NsPerAccess: v}
	}
	return rep
}

func TestCompareBaseline(t *testing.T) {
	base := baselineReport(map[string]float64{
		"base/batched": 100, "anchor/batched": 110, "anchor/serial": 130})

	// Within tolerance: small slowdowns and any speedup pass.
	fresh := baselineReport(map[string]float64{
		"base/batched": 108, "anchor/batched": 90, "anchor/serial": 130})
	if err := CompareBaseline(fresh, base, 0.10); err != nil {
		t.Errorf("within-tolerance report failed: %v", err)
	}

	// One cell regressed beyond 10%: the error must name it.
	fresh = baselineReport(map[string]float64{
		"base/batched": 125, "anchor/batched": 100, "anchor/serial": 130})
	err := CompareBaseline(fresh, base, 0.10)
	if err == nil {
		t.Fatal("25% regression passed the baseline gate")
	}
	if !strings.Contains(err.Error(), "base/batched") {
		t.Errorf("regression error does not name the cell: %v", err)
	}

	// Cells only in one report are ignored, not regressions.
	fresh = baselineReport(map[string]float64{
		"base/batched": 100, "colt/batched": 9999})
	if err := CompareBaseline(fresh, base, 0.10); err != nil {
		t.Errorf("extra fresh-only cell failed the gate: %v", err)
	}

	// No overlap at all must error: the gate compared nothing.
	fresh = baselineReport(map[string]float64{"rmm/serial": 50})
	if err := CompareBaseline(fresh, base, 0.10); err == nil {
		t.Error("disjoint reports compared as passing")
	}

	// A JSON round-trip of the artifact stays comparable (the committed
	// baseline is read back through encoding/json).
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var loaded PipelineReport
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if err := CompareBaseline(base, loaded, 0); err != nil {
		t.Errorf("report differs from its own JSON round-trip: %v", err)
	}
}
