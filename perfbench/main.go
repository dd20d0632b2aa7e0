// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator from outside — through the public hybridtlb API, the
// exported functions of the internal layer packages, and the real
// tlbserver binary over loopback HTTP — and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and forwards):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run rebuilds the workload's cells from
// layer calls, records spans around each call, and reports the
// per-layer metrics. Every run checks the program's outputs; each
// mismatch counts as a failed operation and makes the exit code 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workDir holds everything a run writes (trace files, spans, results);
// it lives inside the checkout, under the build directory .gitignore
// already excludes.
const workDir = ".bench_build/perfbench"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's outcome.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	nproc   int

	mu        sync.Mutex // guards attempted, failed and problems
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric

	tr *tracer
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op counts one attempted operation; a non-nil err counts it failed.
func (r *run) op(err error) bool {
	r.check(err == nil, "%v", err)
	return err == nil
}

// check counts one correctness comparison.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failed operation without a matching attempt; callers
// use it for a failure inside an operation already counted.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// benchWorkload is one traffic mix. Its why is recorded beside its
// definition in the workloads table.
type benchWorkload struct {
	name string
	why  string
	fn   func(r *run) error
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload name (one of "+strings.Join(workloadNames(), ", ")+")")
		seed    = flag.Int64("seed", 1, "input seed: the same seed makes the same inputs")
		seconds = flag.Float64("seconds", 10, "measured time per run")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	)
	flag.Parse()
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if why := spec.why(wl.name); why != wl.why {
		fmt.Fprintf(os.Stderr, "perfbench: %s: why in %s is %q, the benchmark's is %q\n", wl.name, specFile, why, wl.why)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	r := &run{
		seed:    *seed,
		seconds: *seconds,
		traced:  *traced == 1,
		nproc:   runtime.NumCPU(),
		metrics: map[string]metric{},
		tr:      newTracer(*traced == 1),
	}
	hostID := fingerprint()
	hostLine, _ := json.Marshal(hostID)
	fmt.Printf("host %s\n", hostLine)

	start := time.Now()
	err = wl.fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if r.traced {
		r.layerSelfTimes()
		if err := r.tr.write(filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, r.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if err := spec.checkMetrics(r.metrics, r.traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	correct := r.failed == 0
	fmt.Printf("%s seed=%d trace=%v: %d/%d operations failed, %.1fs\n",
		wl.name, r.seed, r.traced, r.failed, r.attempted, time.Since(start).Seconds())
	r.printTable()

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics}
	line, _ := json.Marshal(out)
	full, _ := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Traced   bool   `json:"traced"`
		Host     host   `json:"host"`
		Result   any    `json:"result"`
	}{wl.name, r.seed, r.traced, hostID, out}, "", "  ")
	resPath := filepath.Join(workDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, r.seed, *traced))
	if err := os.WriteFile(resPath, full, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// specFile declares the workloads and metrics; the benchmark reports
// exactly the metrics it names.
const specFile = "BENCHMARK.json"

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s benchSpec) why(name string) string {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// checkMetrics fails a result whose metric names or units differ from
// the declared set for its mode.
func (s benchSpec) checkMetrics(got map[string]metric, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in %s but not measured", m.Name, specFile)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared in %s", len(got), len(want), specFile)
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func (r *run) printTable() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// host identifies the machine and build a result came from, so results
// are compared only within one host.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "none",
		SourceHash: sourceHash("."),
	}
	// Only a repository rooted at this checkout names the commit; a
	// checkout that is not a repository reports none.
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, _ := os.Getwd()
	if err == nil && filepath.Clean(strings.TrimSpace(string(top))) == filepath.Clean(wd) {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests the Go sources and module files under root (build
// output excluded), naming the code measured when no commit is known.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
