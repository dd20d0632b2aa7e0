package sweep

import (
	"sync"

	"hybridtlb/internal/sim"
)

// A batch's cells often differ only in what acts on their inputs — the
// eight schemes of one (benchmark, scenario, seed) cell, static ideal's
// sixteen distances, the churn set's schemes — while their generated
// chunk list and trace are the same. The engine therefore groups the
// cache-missing tasks of one input key (sim.Config.InputKey), runs each
// group's tasks back to back, and lets them share one sim.Inputs: the
// first member to run builds it, the last to finish releases it. Every
// task still runs alone through safeRun, so store probes, probes, fault
// plans, retries, panic isolation and progress stay per cell.
//
// Memory: tasks are dispatched in group order, so only the groups of
// the tasks in flight, plus at most the next group at the head of the
// queue, hold inputs: at most Parallelism+1 input sets are live, each
// its chunk list plus a trace of at most sim.MaxSharedRecords records
// (4 MiB). Longer traces are streamed by each cell, as without sharing.

// inputGroup is the batch's tasks that share one input key.
type inputGroup struct {
	key   string                      // the members' sim.Config.InputKey
	track func(key string, delta int) // Engine.inputsLive

	mu    sync.Mutex
	built bool
	in    *sim.Inputs
	left  int // members not yet finished
}

// inputs returns the group's shared inputs, built from cfg by the first
// member to ask. It returns nil for a nil group and after a failed
// build: the member then runs alone, so a build failure comes back as
// the same error an unshared run reports.
func (g *inputGroup) inputs(cfg sim.Config) *sim.Inputs {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.built {
		// Marked first: a build that panics is not retried by the
		// members after it, which run alone instead.
		g.built = true
		if in, err := sim.NewInputs(cfg); err == nil {
			g.in = in
			if g.track != nil {
				g.track(g.key, 1)
			}
		}
	}
	return g.in
}

// finish marks one member done, releasing the inputs after the last.
func (g *inputGroup) finish() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left--; g.left == 0 && g.in != nil {
		g.in = nil
		if g.track != nil {
			g.track(g.key, -1)
		}
	}
}

// groupTasks stably orders tasks by the first appearance of their input
// key and gives each key with two or more tasks a shared input group.
func (e *Engine) groupTasks(tasks []*task) []*task {
	type keyed struct {
		key   string
		tasks []*task
	}
	index := make(map[string]int)
	var byKey []keyed
	for _, t := range tasks {
		k := t.job.Config.InputKey()
		i, ok := index[k]
		if !ok {
			i = len(byKey)
			index[k] = i
			byKey = append(byKey, keyed{key: k})
		}
		byKey[i].tasks = append(byKey[i].tasks, t)
	}
	out := make([]*task, 0, len(tasks))
	for _, kt := range byKey {
		if len(kt.tasks) > 1 {
			g := &inputGroup{key: kt.key, track: e.inputsLive, left: len(kt.tasks)}
			for _, t := range kt.tasks {
				t.group = g
			}
		}
		out = append(out, kt.tasks...)
	}
	return out
}
