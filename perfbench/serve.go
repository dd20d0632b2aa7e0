package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hybridtlb"
)

// serverBinary is the tlbserver the wrapper script builds from source.
const serverBinary = ".bench_build/bin/tlbserver"

const (
	// openLoopRate is phase (a)'s fixed send rate: about half of the
	// closed-loop capacity measured on a 2-CPU Xeon host, then frozen so
	// every run offers the same load.
	openLoopRate = 150
	// sweepEvery makes every n-th phase (a) request an async sweep.
	sweepEvery = 10
	// repeatShare of the simulate requests repeat an earlier config, so
	// the server's result cache serves them.
	repeatShare = 0.2
	// pollEvery spaces the polls of one running sweep.
	pollEvery = 5 * time.Millisecond
	// openShare of the run's seconds goes to phase (a), the rest to (b).
	openShare = 0.75
	// serveRounds splits the run into rounds of phase (a) then (b). The
	// closed-loop figures are medians over rounds; the latencies are
	// taken over phase (a)'s one-second windows (see windows).
	serveRounds = 3
	// serveSample is how many simulate responses are re-run through the
	// library and compared.
	serveSample = 24
	// drainWait bounds how long phase (a) waits for its last replies.
	drainWait = 30 * time.Second

	serveFootprint = 8192
	serveAccesses  = 20_000
	sweepAccesses  = 5_000
)

// serveSchemes are the schemes the simulate mix cycles through.
var serveSchemes = []string{"base", "thp", "cluster-2mb", "rmm", "anchor"}

// simReq is the body of POST /v1/simulate.
type simReq struct {
	Scheme         string `json:"scheme"`
	Workload       string `json:"workload"`
	Scenario       string `json:"scenario"`
	Accesses       uint64 `json:"accesses"`
	FootprintPages uint64 `json:"footprint_pages"`
	Seed           int64  `json:"seed"`
}

func (q simReq) cell() cell {
	return cell{scheme: q.Scheme, bench: q.Workload, scenario: q.Scenario, accesses: q.Accesses, seed: q.Seed,
		footprint: q.FootprintPages}
}

type sweepReq struct {
	Schemes        []string `json:"schemes"`
	Workloads      []string `json:"workloads"`
	Scenarios      []string `json:"scenarios"`
	Seeds          []int64  `json:"seeds"`
	Accesses       uint64   `json:"accesses"`
	FootprintPages uint64   `json:"footprint_pages"`
}

// resultJSON is the part of a simulate response the benchmark checks.
type resultJSON struct {
	Accesses       uint64 `json:"accesses"`
	Instructions   uint64 `json:"instructions"`
	L1Hits         uint64 `json:"l1_hits"`
	L2RegularHits  uint64 `json:"l2_regular_hits"`
	CoalescedHits  uint64 `json:"coalesced_hits"`
	Misses         uint64 `json:"misses"`
	Cycles         uint64 `json:"cycles"`
	AnchorDistance uint64 `json:"anchor_distance"`
}

func (x resultJSON) counts() counts {
	return counts{x.Accesses, x.L1Hits, x.L2RegularHits, x.CoalescedHits, x.Misses, x.Cycles, x.Instructions, x.AnchorDistance}
}

type jobJSON struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created_at"`
	Started  *time.Time `json:"started_at"`
	Finished *time.Time `json:"finished_at"`
	Done     int        `json:"done"`
	Total    int        `json:"total"`
	Results  []struct {
		Result *resultJSON `json:"result"`
	} `json:"results"`
}

// server is one running tlbserver process.
type server struct {
	cmd  *exec.Cmd
	base string
	key  string
	done chan error
}

// startServer runs the real tlbserver with default workers, logs
// discarded and one keyfile tenant whose limits sit far above the
// offered load, and returns once /readyz answers 200.
func startServer(keyfile, key string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(serverBinary)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	start := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-tenant-keyfile", keyfile)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	// The server must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", serverBinary, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, key: key, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("tlbserver exited before ready: %v", err)
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, errors.New("tlbserver not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the server to drain and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client issues requests over at most nproc connections.
type client struct {
	hc  *http.Client
	srv *server
}

func (c *client) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+c.srv.key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(data, out)
	}
	return resp.StatusCode, nil
}

// serveMix is the deterministic request plan of one run: fresh simulate
// configs with per-request seeds (cache misses), repeats of earlier
// ones (cache hits), and small sweeps.
type serveMix struct {
	rng   *rand.Rand
	fresh []simReq
	next  int64
}

func newServeMix(seed int64) *serveMix {
	return &serveMix{rng: rand.New(rand.NewSource(seed)), next: seed * 1_000_003}
}

// simulate returns the next simulate request and whether it repeats an
// earlier one.
func (m *serveMix) simulate() (simReq, bool) {
	if len(m.fresh) > 0 && m.rng.Float64() < repeatShare {
		return m.fresh[m.rng.Intn(len(m.fresh))], true
	}
	m.next++
	q := simReq{Scheme: serveSchemes[m.rng.Intn(len(serveSchemes))], Workload: "mcf", Scenario: "medium",
		Accesses: serveAccesses, FootprintPages: serveFootprint, Seed: m.next}
	m.fresh = append(m.fresh, q)
	return q, false
}

func (m *serveMix) sweep() sweepReq {
	m.next++
	return sweepReq{Schemes: []string{"base", "anchor"}, Workloads: []string{"omnetpp"}, Scenarios: []string{"low"},
		Seeds: []int64{m.next}, Accesses: sweepAccesses, FootprintPages: serveFootprint}
}

// reply is one completed simulate request that was not a repeat.
type reply struct {
	req simReq
	res resultJSON
}

// serveWork is the serve workload: the real tlbserver under an open
// loop (phase a) and then a closed loop (phase b).
func serveWork(r *run) error {
	key := fmt.Sprintf("bench-%d", r.seed)
	keyfile := filepath.Join(workDir, "tenants.json")
	tenants := fmt.Sprintf(`{"tenants":[{"name":"bench","key":%q,"weight":1,"rate_per_sec":1000000,"burst":1000000,"max_in_flight":1024}]}`, key)
	if err := os.WriteFile(keyfile, []byte(tenants), 0o644); err != nil {
		return err
	}
	defer os.Remove(keyfile)

	// Set-up: server start to /readyz 200, several times.
	setup, err := r.timeSetup(func() (time.Duration, error) {
		start := time.Now()
		s, err := startServer(keyfile, key)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		s.stop()
		return d, nil
	})
	if err != nil {
		return err
	}
	srv, err := startServer(keyfile, key)
	if !r.op(err) {
		return err
	}
	defer srv.stop()

	tr := &http.Transport{MaxConnsPerHost: r.nproc, MaxIdleConnsPerHost: r.nproc}
	defer tr.CloseIdleConnections()
	cl := &client{hc: &http.Client{Transport: tr, Timeout: drainWait}, srv: srv}
	mix := newServeMix(r.seed)

	round := time.Duration(r.seconds / serveRounds * float64(time.Second))
	var replies []reply
	var late []float64
	var jobs jobTimes
	var simP50, simP99, sweepP50, sweepP90, capacity, maccess []float64
	nSim, nSweep := 0, 0
	for k := 0; k < serveRounds; k++ {
		rep, lat, sweepLat, lt, jt := r.openLoop(cl, mix, time.Duration(openShare*float64(round)))
		c, m := r.closedLoop(cl, mix, time.Duration((1-openShare)*float64(round)))
		replies = append(replies, rep...)
		late = append(late, lt...)
		jobs.wait = append(jobs.wait, jt.wait...)
		jobs.run = append(jobs.run, jt.run...)
		simP50 = append(simP50, lat.percentiles(50)...)
		simP99 = append(simP99, lat.percentiles(99)...)
		sweepP50 = append(sweepP50, sweepLat.percentiles(50)...)
		sweepP90 = append(sweepP90, sweepLat.percentiles(90)...)
		capacity = append(capacity, c)
		maccess = append(maccess, m)
		nSim += lat.count()
		nSweep += sweepLat.count()
	}

	metrics, err := scrape(cl)
	if !r.op(err) {
		return err
	}
	rss := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))

	if !r.traced {
		r.set("setup_s", "s", setup)
		r.set("sim_p50_ms", "ms", percentile(simP50, windowQuantile))
		r.set("sim_p99_ms", "ms", percentile(simP99, windowQuantile))
		r.set("sweep_p50_ms", "ms", percentile(sweepP50, windowQuantile))
		r.set("sweep_p90_ms", "ms", percentile(sweepP90, windowQuantile))
		r.set("capacity_rps", "1/s", median(capacity))
		r.set("sim_maccess_per_s", "Maccess/s", median(maccess))
		r.set("peak_rss_mib", "MiB", rss)
	}
	fmt.Printf("serve: %d simulate, %d sweeps in phase (a) over %d rounds; capacity %.0f rps\n",
		nSim, nSweep, serveRounds, median(capacity))

	// A seeded sample of the fresh replies must equal the library.
	var sample []cell
	var served []counts
	var refTime time.Duration
	before := readGoStats()
	var simulated uint64
	for _, i := range seededSample(r.seed, len(replies), serveSample) {
		rp := replies[i]
		start := time.Now()
		res, err := hybridtlb.Simulate(rp.req.cell().config())
		refTime += time.Since(start)
		if !r.op(err) {
			continue
		}
		want := fromResult(res)
		r.check(want == rp.res.counts(), "%v: server %+v, library %+v", rp.req.cell(), rp.res.counts(), want)
		c := rp.req.cell()
		sample = append(sample, c)
		served = append(served, want)
		simulated += c.simulated()
	}
	if !r.traced {
		return nil
	}
	r.setGoMetrics(before, simulated)
	r.set("server.queue_wait_ms_p50", "ms", percentile(jobs.wait, 50))
	r.set("server.queue_wait_ms_p90", "ms", percentile(jobs.wait, 90))
	r.set("server.job_run_ms_p50", "ms", percentile(jobs.run, 50))
	r.set("server.shed", "count", metrics["shed"])
	r.set("loadgen.late_ms_p99", "ms", percentile(late, 99))
	cells := metrics["cells"]
	hitRatio := 0.0
	if cells > 0 {
		hitRatio = metrics["hits"] / cells
	}
	r.set("sweep.cache_hit_ratio", "ratio", hitRatio)
	return r.tracedServeCells(sample, served, refTime)
}

// windows group phase (a)'s latencies by the one-second window their
// request was due in. A latency percentile is taken per window, and the
// run reports the windowQuantile-th percentile of the window values: on
// a shared 2-CPU host, load from outside the run stalls whole windows
// (their p99 doubles or triples) in a varying share of runs, and the
// lower quartile of windows keeps those stalls out of the figure. A
// change that slows every window still moves it.
type windows [][]float64

// windowQuantile picks the reported window value.
const windowQuantile = 25

func newWindows(d time.Duration) windows { return make(windows, int(d/time.Second)) }

// add files a latency by due offset; requests due in a trailing
// partial window are dropped.
func (w windows) add(due time.Duration, v float64) {
	if i := int(due / time.Second); i < len(w) {
		w[i] = append(w[i], v)
	}
}

// percentiles returns the p-th percentile of each non-empty window.
func (w windows) percentiles(p float64) []float64 {
	var out []float64
	for _, x := range w {
		if len(x) > 0 {
			out = append(out, percentile(x, p))
		}
	}
	return out
}

func (w windows) count() int {
	n := 0
	for _, x := range w {
		n += len(x)
	}
	return n
}

// jobTimes are the server's own stamps of each finished sweep job.
type jobTimes struct{ wait, run []float64 }

type loadTask struct {
	kind  int // taskSimulate, taskSweep or taskPoll
	due   time.Time
	sim   simReq
	rep   bool
	sweep sweepReq
	id    string
	span  openSpan
}

const (
	taskSimulate = iota
	taskSweep
	taskPoll
)

// openLoop sends phase (a)'s plan at openLoopRate for d. Each request
// is timed from when it was due, so a stall counts against every
// request queued behind it; late records how far behind schedule the
// generator started each request. Sweeps are polled until done.
func (r *run) openLoop(cl *client, mix *serveMix, d time.Duration) (replies []reply, lat, sweepLat windows, late []float64, jobs jobTimes) {
	n := int(d.Seconds() * openLoopRate)
	lat, sweepLat = newWindows(d), newWindows(d)
	interval := time.Second / openLoopRate
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Buffered for every scheduled request plus one poll per sweep, so
	// neither the generator nor a poll timer ever blocks on a busy
	// connection: the wait shows as lateness instead.
	tasks := make(chan loadTask, n+n/sweepEvery+1)
	var mu sync.Mutex
	var pending sync.WaitGroup
	var workers sync.WaitGroup
	tr := r.tr
	start := time.Now()
	for w := 0; w < r.nproc; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				var t loadTask
				select {
				case t = <-tasks:
				case <-ctx.Done():
					return
				}
				startLate := ms(time.Since(t.due))
				switch t.kind {
				case taskSimulate:
					s := tr.begin("server.simulate", 0)
					var res resultJSON
					_, err := cl.do("POST", "/v1/simulate", t.sim, &res)
					tr.end(s)
					took := ms(time.Since(t.due))
					mu.Lock()
					late = append(late, startLate)
					if r.op(err) {
						r.check(res.counts().sums(t.sim.Accesses), "%v: outcome counters %+v do not sum", t.sim.cell(), res)
						lat.add(t.due.Sub(start), took)
						if !t.rep {
							replies = append(replies, reply{t.sim, res})
						}
					} else {
						// A failed request misses any latency limit.
						lat.add(t.due.Sub(start), float64(drainWait/time.Millisecond))
					}
					mu.Unlock()
					pending.Done()
				case taskSweep:
					t.span = tr.begin("server.sweep", 0)
					var job jobJSON
					_, err := cl.do("POST", "/v1/sweeps", t.sweep, &job)
					if !r.op(err) {
						pending.Done()
						continue
					}
					t.kind, t.id = taskPoll, job.ID
					r.schedulePoll(ctx, tasks, t)
				case taskPoll:
					var job jobJSON
					_, err := cl.do("GET", "/v1/sweeps/"+t.id, nil, &job)
					if err != nil || job.State == "failed" || job.State == "canceled" {
						r.check(false, "sweep %s: state %q, err %v", t.id, job.State, err)
						pending.Done()
						continue
					}
					if job.State != "done" {
						r.schedulePoll(ctx, tasks, t)
						continue
					}
					took := ms(time.Since(t.due))
					tr.end(t.span)
					r.check(job.Done == job.Total && len(job.Results) == job.Total,
						"sweep %s done with %d of %d cells", t.id, job.Done, job.Total)
					for _, c := range job.Results {
						r.check(c.Result != nil && c.Result.counts().sums(sweepAccesses), "sweep %s: cell result %+v", t.id, c.Result)
					}
					mu.Lock()
					sweepLat.add(t.due.Sub(start), took)
					if job.Started != nil && job.Finished != nil {
						jobs.wait = append(jobs.wait, ms(job.Started.Sub(job.Created)))
						jobs.run = append(jobs.run, ms(job.Finished.Sub(*job.Started)))
						tr.add("server.queue_wait", t.span.id, job.Created, *job.Started)
						tr.add("sweep.job_run", t.span.id, *job.Started, *job.Finished)
					}
					mu.Unlock()
					pending.Done()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		t := loadTask{kind: taskSimulate, due: start.Add(time.Duration(i) * interval)}
		if i%sweepEvery == sweepEvery-1 {
			t.kind, t.sweep = taskSweep, mix.sweep()
		} else {
			t.sim, t.rep = mix.simulate()
		}
		time.Sleep(time.Until(t.due))
		pending.Add(1)
		tasks <- t
	}
	finished := make(chan struct{})
	go func() { pending.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(drainWait):
		r.fail("phase (a): replies still outstanding after %v", drainWait)
	}
	cancel()
	workers.Wait()
	return replies, lat, sweepLat, late, jobs
}

func (r *run) schedulePoll(ctx context.Context, tasks chan<- loadTask, t loadTask) {
	time.AfterFunc(pollEvery, func() {
		select {
		case tasks <- t:
		case <-ctx.Done():
		}
	})
}

// closedLoop runs nproc clients that each send their next simulate
// request only after the previous reply, for d; it returns completed
// requests per second and simulated accesses (cache misses, warmup
// included) per second, in millions.
func (r *run) closedLoop(cl *client, mix *serveMix, d time.Duration) (float64, float64) {
	plan := make([][]simReq, r.nproc)
	reps := make([][]bool, r.nproc)
	// Enough requests for any host; each client stops at the deadline.
	per := int(d.Seconds()*2000) + 1
	for i := 0; i < per; i++ {
		for c := 0; c < r.nproc; c++ {
			q, rep := mix.simulate()
			plan[c] = append(plan[c], q)
			reps[c] = append(reps[c], rep)
		}
	}
	var mu sync.Mutex
	var done int
	var accesses uint64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range plan[c] {
				if time.Now().After(deadline) {
					return
				}
				var res resultJSON
				_, err := cl.do("POST", "/v1/simulate", q, &res)
				if !r.op(err) {
					continue
				}
				r.check(res.counts().sums(q.Accesses), "%v: outcome counters %+v do not sum", q.cell(), res)
				mu.Lock()
				done++
				if !reps[c][i] {
					accesses += q.cell().simulated()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	return float64(done) / secs, float64(accesses) / secs / 1e6
}

// scrape reads the counters the benchmark reports from /metrics: sheds
// (every 429 the admission gates and the queue issued) and the sweep
// cache's cells and hits.
func scrape(cl *client) (map[string]float64, error) {
	resp, err := cl.hc.Get(cl.srv.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "tlbserver_tenant_shed_total"), name == "tlbserver_http_requests_rejected_total":
			out["shed"] += v
		case name == "tlbserver_sweep_cells_total":
			out["cells"] = v
		case name == "tlbserver_sweep_cache_hits_total":
			out["hits"] = v
		}
	}
	return out, sc.Err()
}

// tracedServeCells rebuilds the sampled served cells from layer calls,
// checks them against the library, and reports the simulator layers'
// metrics for the serve workload.
func (r *run) tracedServeCells(sample []cell, served []counts, untraced time.Duration) error {
	if len(sample) == 0 {
		return errors.New("no simulate replies to rebuild")
	}
	w := simWork{cells: sample, decodeCell: sample[0]}
	for _, s := range gridSchemes {
		if !contains(serveSchemes, s) {
			p := sample[0]
			p.scheme = s
			w.panel = append(w.panel, p)
		}
	}
	// The library reference ran the sample serially; so does the
	// rebuild, which makes the two walls comparable.
	return r.traceCells(w, served, untraced, 1)
}
