package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them when the run ends. A
// span is recorded around one call into a layer, from the benchmark's
// own code; the layer is the span name's prefix before the first dot.
// A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// openSpan is a span begun but not yet ended: begin reserves its id,
// end records it.
type openSpan struct {
	id     int32
	parent int32
	name   string
	start  time.Time
}

func (t *tracer) begin(name string, parent int32) openSpan {
	if !t.on {
		return openSpan{}
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return openSpan{id: id, parent: parent, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (t *tracer) end(s openSpan) time.Duration {
	if !t.on {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[s.id-1] = span{ID: s.id, Parent: s.parent, Name: s.name,
		Start: int64(s.start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
	t.mu.Unlock()
	return now.Sub(s.start)
}

// add records an already-timed interval (for example a server job's
// created/started/finished stamps).
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.ID == 0 {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of that interval its child spans
// cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.ID != 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.ID == 0 {
			continue
		}
		self := (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// layers are the repository's modules the traced run attributes time
// to; persist, fabric, lint, report, benchparse, cache and buildinfo are
// on no path a user times.
var layers = []string{"workload", "trace", "mapping", "osmem", "core", "pagetable", "tlb", "mmu", "sim", "sweep", "server"}

func (r *run) layerSelfTimes() {
	self := r.tr.selfTimes()
	for _, l := range layers {
		r.set(l+".self_ms", "ms", float64(self[l])/1e6)
	}
	r.set("tracing.spans", "count", float64(len(r.tr.spans)))
}

// goStats samples the Go runtime around a measured phase.
type goStats struct {
	alloc uint64
	gcCPU float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{alloc: ms.TotalAlloc, gcCPU: ms.GCCPUFraction}
}

// setGoMetrics reports the Go runtime's allocation per simulated access
// over a phase, and the fraction of CPU the collector used since start.
func (r *run) setGoMetrics(before goStats, accesses uint64) {
	after := readGoStats()
	perAccess := 0.0
	if accesses > 0 {
		perAccess = float64(after.alloc-before.alloc) / float64(accesses)
	}
	r.set("go.alloc_bytes_per_access", "B", perAccess)
	r.set("go.gc_cpu_fraction", "ratio", after.gcCPU)
}
