package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runConfig is what one invocation was asked to do.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	smoke    bool
	outDir   string
	// beforeEmit, when set, runs in a generator goroutine before every
	// emit call; the tests stall the sink with it.
	beforeEmit func()

	// Derived from window and smoke.
	warmup      time.Duration
	setups      [2]int // fewest and most set-up rounds
	recoveries  [2]int // fewest and most recovery rounds
	deployEvery time.Duration
}

func (c *runConfig) derive() {
	c.warmup = time.Duration(float64(c.window) * warmupShare)
	c.setups, c.recoveries, c.deployEvery = [2]int{setupMin, setupMax}, [2]int{recoveryMin, recoveryMax}, deployEvery
	if c.smoke {
		c.setups, c.recoveries, c.deployEvery = [2]int{1, 1}, [2]int{2, 2}, 50*time.Millisecond
	}
}

// again reports whether a repeated phase goes another round after done
// rounds that took spent in all.
func again(rounds [2]int, done int, spent time.Duration) bool {
	return done < rounds[0] || (done < rounds[1] && spent < repeatBudget)
}

// workload is what the four workloads implement; run drives the phases.
type workload interface {
	// setup builds the system under dataDir: nodes, descriptors,
	// registered queries, subscribers, pre-populated tables. It is timed.
	setup(r *run, dataDir string) error
	// start launches the load on g; every goroutine ends when r.stop
	// closes.
	start(r *run, g *group)
	// drained reports whether every emitted element has been covered by a
	// result.
	drained() bool
	// settle runs after the load has drained and before the logs close:
	// it brings the stored state the recovery rounds start from to the
	// same point in every run.
	settle(r *run) error
	// recoverOnce closes the system and reopens it on the same data
	// directory, returning once the first verified query has been
	// answered.
	recoverOnce(r *run) error
	// close tears the system down.
	close() error
	// finish runs the reference checks over the complete logs and fills
	// the workload's metrics.
	finish(r *run, m metrics)
}

// run is the state one benchmark run shares between its phases.
type run struct {
	cfg   runConfig
	cal   calibration
	g     *gen
	epoch time.Time
	chk   *checker
	tr    *tracer            // nil in an untraced run
	gen   *conductor         // nil while no open loop is running
	ref   *speedRef          // the machine's speed, lap by lap; see speed.go
	raw   map[string]float64 // end-to-end values as measured, before normalisation
	http  *http.Client

	refTicks ticks // one reference lap per due time

	stop               chan struct{}
	winStart, winEnd   int64          // ns since epoch
	traceFrom          int64          // traced run: spans are on from here
	procStart, procEnd procSnapshot   // at the window's edges
	procMid            procSnapshot   // traced run: at traceFrom
	seamStart, seamEnd seamCounts     // traced run: at the window's edges
	recovery           samples        // open → first correct query, one per reopen
	reopen             samples        // the reopen alone (tables replayed, sensors deployed)
	replayed           int64          // WAL rows replayed by the last reopen
	notes              []string       // validity remarks for the report
	facts              map[string]any // sizes the workload states with its result
	traceFile          string         // traced run: where the spans went

	own           ownBuffers // the benchmark's log buffers, handed from one set-up round to the next
	setupFS       fsClock    // the set-up rounds' time inside the filesystem
	clientLag     []int64    // how long idle clients took to wake (see clientStart); filled by finish
	subs          []func()   // ends each benchmark subscription; see quiesce
	notifyDropped uint64     // events the benchmark's subscriber queues dropped

	// Set by the workload's finish: operations completed in the window,
	// and how many of them fell before traceFrom.
	ops, opsUntraced int64
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// inWindow reports whether an offset falls inside the measured window.
// winEnd is 0 while the window is still open.
func (r *run) inWindow(t int64) bool {
	return r.winStart > 0 && t >= r.winStart && (r.winEnd == 0 || t < r.winEnd)
}

// metrics maps a metric name to its value and sample count.
type metrics map[string]metricValue

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, s := range endToEnd {
		u[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		u[s.Name] = s.Unit
	}
	return u
}()

func (m metrics) set(name string, v float64, samples int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	m[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

// result is one run's full record (benchmark/out/*.json and -compare).
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Valid     bool               `json:"valid"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   metrics            `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	Env       map[string]any     `json:"env"`
	Frozen    map[string]any     `json:"frozen"`
	Facts     map[string]any     `json:"facts,omitempty"`
	Raw       map[string]float64 `json:"raw,omitempty"` // end-to-end values before normalisation
	Claim     *string            `json:"claim"`         // always null: this benchmark claims no gain
	Failures  []string           `json:"failures,omitempty"`
	Ledger    map[string]ledger  `json:"ledger,omitempty"` // traced run: per span name
	TraceFile string             `json:"trace_file,omitempty"`
}

// ledger is one span name's line of the self-time table.
type ledger struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func environment(cfg runConfig) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"loadavg_1m": loadAvg1(),
	}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wPipeline:
		return &pipelineWorkload{}, nil
	case wIngest:
		return &ingestWorkload{}, nil
	case wQueryMix:
		return &queryMixWorkload{}, nil
	case wCluster:
		return &clusterWorkload{}, nil
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q (known: %v)", name, workloadNames)
}

// execute runs one workload through its phases and returns its record.
func execute(cfg runConfig) (*result, error) {
	cfg.derive()
	env := environment(cfg) // load average before the run adds its own
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	cal := frozen[cfg.workload]
	r := &run{
		cfg:      cfg,
		cal:      cal,
		g:        newGen(cfg.seed),
		epoch:    time.Now(),
		chk:      newChecker(),
		stop:     make(chan struct{}),
		ref:      newSpeedRef(),
		refTicks: newTicks(),
		raw:      map[string]float64{},
		facts:    map[string]any{},
		http:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 30 * time.Second},
	}
	defer r.http.CloseIdleConnections()
	if cfg.trace {
		r.tr = newTracer(r.epoch)
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(base)

	// Set-up, several times over: setup_s is the median, and every round
	// but the last is torn down again. Each round starts from a collected
	// heap, so none pays for its predecessor's garbage, and is timed without
	// the time it spent inside the filesystem (see fsClock).
	var setupS, setupFsMs []float64
	setupFrom, stopLaps := r.now(), r.lapEvery()
	defer stopLaps() // the error paths
	for spent := time.Duration(0); ; {
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", len(setupS)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		r.own.rewind()
		r.setupFS.on.Store(true)
		t0, fs0 := time.Now(), r.setupFS.total()
		if err := w.setup(r, dir); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took, inFS := time.Since(t0), r.setupFS.total()-fs0
		r.setupFS.on.Store(false)
		spent += took
		setupS = append(setupS, (took - inFS).Seconds())
		setupFsMs = append(setupFsMs, float64(inFS)/1e6)
		for i := 0; i < refBetween; i++ {
			r.ref.lap(r.now())
		}
		if !again(cfg.setups, len(setupS), spent) {
			break
		}
		r.quiesce() // nothing writes to the round's logs any more: the next round reuses them
		if err := w.close(); err != nil {
			return nil, fmt.Errorf("tearing down set-up %d: %w", len(setupS), err)
		}
		if w, err = newWorkload(cfg.workload); err != nil {
			return nil, err
		}
	}
	defer w.close()
	stopLaps()
	setupTo := r.now()

	// Load: warm-up, then the measured window.
	watch := watchGoroutines()
	var g group
	w.start(r, &g)
	if r.gen != nil {
		r.gen.every(refEvery, r.refTicks)
		g.go_(r.gen.run)
	}
	g.go_(func() { r.refLoop(r.refTicks) })
	time.Sleep(cfg.warmup)
	runtime.GC() // start every window from a collected heap
	r.procStart = r.takeProcSnapshot()
	r.winStart = r.now()
	if r.tr != nil {
		r.seamStart = r.tr.counts()
		// The first third of a traced window runs with span recording off:
		// its cpu_us_per_op is the base of trace.overhead_ratio.
		time.Sleep(cfg.window / 3)
		r.procMid = r.takeProcSnapshot()
		r.traceFrom = r.now()
		r.tr.on.Store(true)
		time.Sleep(cfg.window - cfg.window/3)
		r.tr.on.Store(false)
		r.seamEnd = r.tr.counts()
	} else {
		time.Sleep(cfg.window)
	}
	r.procEnd = r.takeProcSnapshot()
	r.winEnd = r.now()
	close(r.stop)
	g.wg.Wait()

	deadline := time.Now().Add(drainTimeout)
	for !w.drained() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	peakGoroutines := watch.finish()
	if err := w.settle(r); err != nil {
		r.chk.ok(false, "%v", err)
	}
	if r.gen != nil {
		if n := r.gen.missed.Load(); n > 0 {
			r.chk.attempted.Add(n)
			r.chk.fail("%d statements or deploys were never issued: the client was more than %d behind", n, cap(newTicks()))
		}
	}

	// The reference checks and the workload's metrics, while the system
	// that produced the logs is still up for its counters to be read.
	r.quiesce()
	m := metrics{}
	w.finish(r, m)
	m.set("loadgen.client_lag_p50_ms", quantileOf(r.clientLag, 0.5)/1e6, len(r.clientLag))

	// Recovery: close and reopen on the same data directory.
	for t0 := time.Now(); again(cfg.recoveries, r.recovery.count(), time.Since(t0)); {
		if err := w.recoverOnce(r); err != nil {
			r.chk.ok(false, "recovery %d: %v", r.recovery.count(), err)
			break
		}
	}

	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.window.Seconds(),
		Metrics: m, Env: env, Notes: r.notes, Facts: r.facts, Raw: r.raw,
		Frozen: map[string]any{
			"feed_rate_eps": cal.FeedRate, "latency_limit_ms": float64(cal.Limit) / 1e6,
			"query_rate_per_s": cal.QueryRate, "warmup_s": cfg.warmup.Seconds(),
			"reference_lap_us": float64(refNominal) / 1e3,
			"deploy_every_ms":  float64(cfg.deployEvery) / 1e6,
		},
	}
	// Set-up is scaled by the laps run beside and between its rounds. A
	// recovery is as much the disk's time as the processor's and is
	// reported as measured.
	r.raw["setup_s"] = medianOf(setupS)
	m.set("setup_s", r.raw["setup_s"]*r.ref.factor(setupFrom, setupTo), len(setupS))
	m.set("recovery_ms", r.recovery.ms(0.5), r.recovery.count())
	r.facts["setup_rounds"], r.facts["recovery_rounds"] = len(setupS), r.recovery.count()
	r.facts["reference_lap_us_window"] = float64(refNominal) / 1e3 / r.ref.factor(r.winStart, r.winEnd)
	m.set("storage.setup_fs_ms", medianOf(setupFsMs), len(setupFsMs))
	m.set("storage.reopen_ms", r.reopen.ms(0.5), r.reopen.count())
	m.set("storage.wal_replayed_rows", float64(r.replayed), r.reopen.count())
	m.set("peak_rss_mb", peakRSSMB(), 1)
	r.procMetrics(m, peakGoroutines)
	if r.tr != nil {
		res.Ledger = r.writeTrace(m)
		res.TraceFile = r.traceFile
		layerProbes(r, m)
	}
	res.Attempted, res.Failed = r.chk.attempted.Load(), r.chk.failed.Load()
	res.Failures = r.chk.messages()
	res.Correct = res.Failed == 0
	res.Valid = len(r.notes) == 0
	return res, nil
}

// procMetrics fills the process-level metrics from the window's
// snapshots and the workload's operation count.
func (r *run) procMetrics(m metrics, peakGoroutines int) {
	n := float64(max(r.ops, 1))
	from, to := r.procStart, r.procEnd
	cpu := float64((to.systemCPU() - from.systemCPU()).Microseconds()) / n
	r.raw["cpu_us_per_op"] = cpu
	m.set("cpu_us_per_op", cpu*r.ref.factor(r.winStart, r.winEnd), int(r.ops))
	m.set("proc.alloc_bytes_per_op", float64(to.allocBytes-from.allocBytes)/n, int(r.ops))
	m.set("proc.allocs_per_op", float64(to.mallocs-from.mallocs)/n, int(r.ops))
	m.set("proc.gc_cpu_share", to.gcCPU, 1)
	m.set("proc.gc_pause_ms_total", float64((to.gcPause-from.gcPause).Microseconds())/1e3, 1)
	m.set("proc.goroutines_peak", float64(peakGoroutines), 1)
	if r.tr == nil {
		return
	}
	// CPU per operation with spans on over CPU per operation with spans
	// off, within this one run: both slices see the same system and load.
	opsOff, opsOn := float64(r.opsUntraced), float64(r.ops-r.opsUntraced)
	if opsOff > 0 && opsOn > 0 {
		off := float64((r.procMid.systemCPU() - from.systemCPU()).Microseconds()) / opsOff
		on := float64((to.systemCPU() - r.procMid.systemCPU()).Microseconds()) / opsOn
		if off > 0 {
			m.set("trace.overhead_ratio", on/off, int(r.ops))
		}
	}
}

// writeTrace stores the span buffer and returns the self-time ledger.
func (r *run) writeTrace(m metrics) map[string]ledger {
	r.tr.attachSeams("core.trigger_to_delivery")
	self, total, count := r.tr.selfTimes()
	out := map[string]ledger{}
	for name := range total {
		out[name] = ledger{Count: count[name], TotalMs: float64(total[name]) / 1e6, SelfMs: float64(self[name]) / 1e6}
	}
	// The share of emit → delivery wall time the element spans' children
	// account for.
	if root := total["element"]; root > 0 {
		m.set("trace.attributed_share", float64(root-self["element"])/float64(root), count["element"])
	}
	r.traceFile = filepath.Join(r.cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", r.cfg.workload, r.cfg.seed))
	if err := r.tr.write(r.traceFile); err != nil {
		r.notes = append(r.notes, "trace not written: "+err.Error())
	}
	return out
}

// printSorted prints a map's entries in key order.
func printSorted(kind string, m map[string]any) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-6s %-22s %v\n", kind, k, m[k])
	}
}

// report prints every metric by name with its unit and sample count.
func (res *result) report(specs []metricSpec) {
	fmt.Printf("workload %s seed %d trace %v window %.0fs\n", res.Workload, res.Seed, res.Trace, res.Seconds)
	printSorted("env", res.Env)
	printSorted("frozen", res.Frozen)
	printSorted("fact", res.Facts)
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-38s %14.4f %-6s n=%d", s.Name, v.Value, v.Unit, v.Samples)
		if raw, ok := res.Raw[s.Name]; ok && !res.Trace {
			line += fmt.Sprintf("   (as measured %.4f)", raw)
		}
		fmt.Println(line)
	}
	if len(res.Ledger) > 0 {
		names := make([]string, 0, len(res.Ledger))
		for name := range res.Ledger {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("  %-38s %10s %14s %14s\n", "span", "count", "total ms", "self ms")
		for _, name := range names {
			l := res.Ledger[name]
			fmt.Printf("  %-38s %10d %14.3f %14.3f\n", name, l.Count, l.TotalMs, l.SelfMs)
		}
	}
	for _, n := range res.Notes {
		fmt.Printf("  invalid: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Printf("  mismatch: %s\n", f)
	}
	fmt.Printf("  operations attempted %d failed %d\n", res.Attempted, res.Failed)
}
