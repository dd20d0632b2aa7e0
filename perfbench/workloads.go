package main

import "hybridtlb"

// The workloads. Each why is the one line BENCHMARK.json carries; the
// comment above it is the longer rationale.
var workloads = []benchWorkload{
	// What a researcher runs to regenerate Figs 7-11. The four
	// benchmarks cover the locality spectrum: gups is uniform and
	// walk-bound, with a 2M-page footprint whose InstallChunks costs more
	// than its 100k accesses; omnetpp is zipf with fine-grained
	// allocation and a costly generator; mcf is pointer-chase plus
	// streams; cactusADM is streaming and L1-bound. The four mappings
	// cover the contiguity range where schemes cross over. colt-fa takes
	// about half the grid's time, so its fix shows here. Set-up,
	// generators and the sweep engine do most of their work here.
	{
		name: "paper-grid",
		why:  "regenerating Figs 7-11: all 8 schemes x 4 benchmarks spanning the locality range x 4 mappings spanning contiguity; set-up, generators, the sweep engine and colt-fa work here",
		fn:   paperGrid,
	},
	// The tlbsim -trace user and the ns/access of one simulation. The
	// translation hot path (mmu/tlb/pagetable), trace decode and
	// osmem.Reselect do most of the work; the generator, the sweep
	// engine and per-cell set-up do almost none.
	{
		name: "long-replay",
		why:  "one long anchor replay of a recorded mcf trace across re-selection epochs: the mmu/tlb/pagetable hot path, trace decode and Reselect work; generators and set-up barely do",
		fn:   longReplay,
	},
	// The same osmem/pagetable/mmu layers, used for writes as well as
	// reads: UnmapRange/AppendChunk, anchor rewrites and shootdowns run
	// while the workload translates, through the per-record Translate
	// loop. This is where a one-drive-loop refactor would claim its gain,
	// and it shows whether a read-path gain costs the update path.
	{
		name: "churn",
		why:  "the experiments churn cells through the sweep engine: osmem, pagetable and mmu take writes (unmap, remap, anchor rewrites, shootdowns) while translating record by record",
		fn:   churnWork,
	},
	// The server user. HTTP/JSON, auth and admission, the job queue, the
	// shared result cache (hit and miss paths) and per-cell set-up do
	// most of the work; translation does almost none. Observability
	// work inside the server lands here, and its overhead must show.
	{
		name: "serve",
		why:  "the real tlbserver under an open loop of small simulate cells, cache repeats and async sweeps, then a closed loop: HTTP/JSON, admission, the queue and the result cache work",
		fn:   serveWork,
	},
}

var gridSchemes = []string{"base", "thp", "cluster", "cluster-2mb", "rmm", "anchor", "colt", "colt-fa"}

// gridBenches cover the locality spectrum: gups is uniform and
// walk-bound, omnetpp zipf with fine-grained allocation, mcf
// pointer-chase plus streams, cactusADM streaming and L1-bound.
var gridBenches = []string{"gups", "omnetpp", "mcf", "cactusADM"}

// gridScenarios cover the contiguity range where the schemes cross over.
var gridScenarios = []struct {
	name     string
	pressure float64
}{{"demand", 0.3}, {"low", 0}, {"medium", 0}, {"high", 0}}

const gridAccesses = 100_000

func paperGrid(r *run) error {
	var w simWork
	for _, s := range gridSchemes {
		for _, b := range gridBenches {
			for _, sc := range gridScenarios {
				w.cells = append(w.cells, cell{scheme: s, bench: b, scenario: sc.name, pressure: sc.pressure,
					accesses: gridAccesses, seed: r.seed})
			}
		}
	}
	for _, b := range gridBenches {
		for _, sc := range gridScenarios {
			w.setups = append(w.setups, cell{scheme: hybridtlb.SchemeAnchor, bench: b, scenario: sc.name,
				pressure: sc.pressure, seed: r.seed})
		}
	}
	w.runUnit = r.runSweeper
	w.unitCells = reseeded(w.cells, r.seed)
	w.setupCells = reseeded(w.setups, r.seed)
	w.reference = simulate
	w.decodeCell = cell{scheme: "anchor", bench: "mcf", scenario: "demand", pressure: 0.3, accesses: gridAccesses, seed: r.seed}
	w.sample = seededSample(r.seed, len(w.cells), gridSample)
	return r.runSim(w)
}

// gridSample is how many paper-grid cells are re-run serially through
// Simulate and compared.
const gridSample = 32

var churnSchemes = []string{"thp", "cluster-2mb", "rmm", "anchor"}
var churnBenches = []string{"mcf", "omnetpp", "gups"}

const (
	churnAccesses = 100_000
	churnInterval = 20_000 // instructions between remaps
	churnPages    = 256    // pages per remap
)

func churnWork(r *run) error {
	var w simWork
	for _, b := range churnBenches {
		for _, s := range churnSchemes {
			w.cells = append(w.cells, cell{scheme: s, bench: b, scenario: "medium", accesses: churnAccesses,
				seed: r.seed, churnInterval: churnInterval, churnPages: churnPages})
		}
		w.setups = append(w.setups, cell{scheme: hybridtlb.SchemeAnchor, bench: b, scenario: "medium", seed: r.seed})
	}
	for _, s := range gridSchemes {
		if !contains(churnSchemes, s) {
			w.panel = append(w.panel, cell{scheme: s, bench: "mcf", scenario: "medium", accesses: churnAccesses,
				seed: r.seed, churnInterval: churnInterval, churnPages: churnPages})
		}
	}
	var cellLat []float64
	w.runUnit = func(cells []cell) ([]counts, error) {
		k, lat, err := r.runChurnSweep(cells)
		cellLat = append(cellLat, lat...)
		return k, err
	}
	w.cellLatencies = func() []float64 { return cellLat }
	w.unitCells = reseeded(w.cells, r.seed)
	w.setupCells = reseeded(w.setups, r.seed)
	w.reference = churnReference
	w.decodeCell = w.cells[0]
	w.sample = seededSample(r.seed, len(w.cells), len(w.cells))
	return r.runSim(w)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
