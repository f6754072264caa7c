// Command perfbench is the repository benchmark: paced open-loop workloads
// against the live wire runtime (internal/wire behind wire.Deployment),
// every packet's outcome checked against internal/oracle.
//
//	perfbench --workload zipf-cached|miss-storm|churn-budget --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced pass instead and prints the per-layer metrics, writing its
// spans to .bench_build/spans/<workload>-seed<N>.jsonl. The last line of
// standard output is one JSON object, {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}, holding the gated metrics; the
// end-to-end metrics that are reported but not gated come on an
// "ungated {...}" line just before it.
//
// "failed" counts the packets whose outcome the oracle contradicts: a
// wrong egress, or a delivery the policy forbids. Packets the network lost
// to a non-policy drop (a spurious authority death's holes, full queues)
// are not wrong answers but lost ones; they are priced in ok_frac and
// fail_frac, whose numerator counts both.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"difane/internal/bfd"
	"difane/internal/wire"
	"difane/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and the human-readable lines printed
// before the JSON result.
type report struct {
	out    io.Writer
	res    result
	broken []string
	// ungated holds the metrics printed but kept out of the result; they
	// go on their own JSON line before it, for perfbench/steady.py.
	ungated map[string]metric
}

func (r *report) set(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.print(name, v, unit, note)
}

// show reports a metric that is not gated: printed, and kept out of the
// JSON result.
func (r *report) show(name string, v float64, unit, note string) {
	r.ungated[name] = metric{Value: v, Unit: unit}
	r.print(name, v, unit, note)
}

func (r *report) print(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.out, "%-36s %14.6g %-6s%s\n", name, v, unit, note)
}

// check folds a segment's verdict into the run's correctness.
func (r *report) check(label string, s *segment) {
	for _, b := range s.verdict.broken {
		r.broken = append(r.broken, label+": "+b)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", profiles[0].name, "workload to run")
	seed := fs.Int64("seed", 1, "traffic seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := lookupProfile(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = errors.New("need --seconds ≥ 1 and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	rep := &report{out: stdout, res: result{Metrics: map[string]metric{}}, ungated: map[string]metric{}}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d rate=%dpps seconds=%d trace=%d gomaxprocs=%d\n",
		p.name, *seed, p.rate, *seconds, *traced, runtime.GOMAXPROCS(0))
	if *traced == 1 {
		err = runTraced(rep, p, *seed, window, filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", p.name, *seed)))
	} else {
		err = runEndToEnd(rep, p, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, b := range rep.broken {
		fmt.Fprintln(stdout, "CHECK FAILED:", b)
	}
	rep.res.Correct = len(rep.broken) == 0
	ungated, err := json.Marshal(rep.ungated)
	if err == nil && len(rep.ungated) > 0 {
		fmt.Fprintln(stdout, "ungated", string(ungated))
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// newCluster builds a deployment and waits until it is ready, returning
// the seconds from NewDeployment to ready. tr, when non-nil, records a span
// around the build.
//
// Every build starts with the process's free memory returned to the OS, as
// in a fresh process: most of a build's time is faulting in its ~40 MB of
// rings and tables, and how much freed memory the runtime's scavenger has
// already returned otherwise varies with the time since the last Close
// (on a 2-vCPU VM, builds took 6-42 ms within one run that way, 30-40 ms
// this way).
func newCluster(p profile, spec *workload.Spec, tr *tracer) (*wire.Deployment, float64, error) {
	debug.FreeOSMemory()
	id, spanStart := tr.open()
	start := time.Now()
	d, err := wire.NewDeployment(p.clusterConfig(spec))
	if err != nil {
		return nil, 0, fmt.Errorf("new deployment: %w", err)
	}
	if err := waitReady(d); err != nil {
		d.Close()
		return nil, 0, err
	}
	took := time.Since(start).Seconds()
	tr.close(id, "wire.NewDeployment+ready", 0, 0, spanStart)
	return d, took, nil
}

// waitReady waits until every switch's BFD session with the controller is
// Up: the cluster can detect failures and so serve traffic as configured.
func waitReady(d *wire.Deployment) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		up := true
		for _, info := range d.C.BFDSessions() {
			if info.State != bfd.StateUp {
				up = false
				break
			}
		}
		if up {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("cluster not ready: BFD sessions still down after 5s")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Split of one run's measured seconds: mainShare goes to trials at the
// workload's rate, each on a fresh cluster, the rest to the max-rate
// search's probes. The end-to-end figures are medians over the trials: a
// trial's latency tail and CPU cost swing with the stalls it happens to
// meet (health ticks, GC, host steal), so one long window is far less
// steady from run to run than the median of several.
const (
	mainShare = 0.6
	trials    = 5
	probes    = 8
	// windowAttempts bounds how often an invalid trial window is rerun.
	windowAttempts = 3
)

func newBench(p profile, spec *workload.Spec, seed int64) (*bench, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	return &bench{
		p: p, spec: spec, gen: newGenerator(spec, p, seed), pace: pace,
		free: make(chan *tickRecord, recordBuffer), relay: make(chan wire.Delivery, relayBuffer),
	}, nil
}

func runEndToEnd(rep *report, p profile, seed int64, window time.Duration) error {
	spec := perfSpec()
	b, err := newBench(p, spec, seed)
	if err != nil {
		return err
	}
	defer b.pace.close()
	base := liveHeap()
	// setup_s is the median over every cluster the run builds: the trials'
	// and the max-rate probes'.
	var setups []float64
	mainDur := time.Duration(float64(window) * mainShare)
	var ts []*trial
	for i := 0; i < trials; i++ {
		t, err := b.trial(mainDur/trials, base)
		if err != nil {
			return err
		}
		rep.check(fmt.Sprintf("trial %d", i+1), t.s)
		if t.retries > 0 {
			fmt.Fprintf(rep.out, "trial %d: %d window(s) missed Delivery notifications and were rerun\n", i+1, t.retries)
		}
		setups = append(setups, t.setups...)
		ts = append(ts, t)
	}
	probeDur := (window - mainDur) / probes
	maxRate, tried, probeSetups, err := b.maxRate(probeDur)
	if err != nil {
		return err
	}
	setups = append(setups, probeSetups...)
	for _, t := range tried {
		rep.check(fmt.Sprintf("probe %dpps", t.rate), t)
	}

	var offered, failed, wrong uint64
	var lat, first, lag []hist
	for i, t := range ts {
		s := t.s
		fmt.Fprintf(rep.out, "trial %d: %v at %d pps, offered %d, delivered %d, redirects %d, policy drops %d, deaths %d, failovers %d, failed %d (lost %d)\n",
			i+1, s.wall.Round(time.Millisecond), p.rate, s.offered, s.delta.delivered, s.delta.redirects,
			s.delta.policy, s.delta.deaths, s.delta.failovers, s.verdict.failed(), s.verdict.lost)
		offered += s.offered
		failed += s.verdict.failed()
		wrong += s.verdict.wrong
		lat, first, lag = append(lat, s.check.lat), append(first, s.check.first), append(lag, s.lag)
	}
	count := func(hs []hist) uint64 {
		var n uint64
		for i := range hs {
			n += hs[i].n
		}
		return n
	}
	of := func(f func(t *trial) float64) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t)
		}
		return median(xs)
	}
	failFrac := float64(failed) / float64(offered)
	perTrial := fmt.Sprintf("median of %d trials", trials)
	// Only figures whose run-to-run spread stays well inside the 25% bound
	// an end-to-end metric may have are gated. Latencies and the max rate
	// track how fast this host wakes a vCPU, which drifts by 20-30% over
	// minutes (miss-storm lat_p50 IQR/median 0.225 over ten seeds), and the
	// p99 tails and the lag swing between modes (miss-storm lat_p99 near
	// 1 ms in some runs and 4.5 ms in others for one seed); they are
	// reported ungated.
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d: %v", len(setups), fmtList(setups)))
	rep.show("lat_p50_ms", subQuantile(lat, 0.50), "ms", fmt.Sprintf("%s, n=%d", perTrial, count(lat)))
	rep.show("lat_p99_ms", subQuantile(lat, 0.99), "ms", fmt.Sprintf("%s, n=%d", perTrial, count(lat)))
	rep.show("first_p50_ms", subQuantile(first, 0.50), "ms", fmt.Sprintf("detoured, n=%d", count(first)))
	rep.show("first_p99_ms", subQuantile(first, 0.99), "ms", fmt.Sprintf("detoured, n=%d", count(first)))
	rep.show("max_rate_pps", maxRate, "1/s", probeSummary(tried))
	rep.set("cpu_us_per_pkt", of(func(t *trial) float64 { return t.s.cpuUsPerPkt() }), "us", perTrial)
	rep.set("heap_mb", of(func(t *trial) float64 { return t.heapMB }), "MB", perTrial+": live heap after GC, less the harness's own")
	rep.set("ok_frac", 1-failFrac, "frac", fmt.Sprintf("1 - fail_frac: %d of %d failed, %d of them lost", failed, offered, failed-wrong))
	rep.show("gen_lag_p99_ms", subQuantile(lag, 0.99), "ms", fmt.Sprintf("%s, n=%d ticks", perTrial, count(lag)))
	rep.show("fail_frac", failFrac, "frac", "")
	rep.res.Attempted, rep.res.Failed = offered, wrong
	return nil
}

// trial is one independent measurement of the workload's rate: a fresh
// cluster, a warm-up, then the timed window.
type trial struct {
	s       *segment
	setups  []float64 // NewDeployment to ready, seconds, one per window tried
	heapMB  float64   // live heap after the window, less base
	retries int       // invalid windows rerun before this one
}

// trial runs one trial. A window whose checker missed notifications the
// cluster dropped from its full channel cannot be scored; it is run again
// on a fresh cluster, up to windowAttempts times.
func (b *bench) trial(dur time.Duration, base uint64) (*trial, error) {
	var setups []float64
	for attempt := 0; attempt < windowAttempts; attempt++ {
		t, err := b.trialOnce(dur, base)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.setups...)
		if !t.s.verdict.invalid {
			t.retries, t.setups = attempt, setups
			return t, nil
		}
	}
	return nil, fmt.Errorf("invalid run: %d windows in a row missed Delivery notifications", windowAttempts)
}

func (b *bench) trialOnce(dur time.Duration, base uint64) (*trial, error) {
	d, setup, err := newCluster(b.p, b.spec, nil)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	t := &trial{setups: []float64{setup}}
	b.d = d
	if _, err := b.run(b.p.rate, b.p.warmUp); err != nil {
		return nil, err
	}
	if t.s, err = b.run(b.p.rate, dur); err != nil {
		return nil, err
	}
	t.heapMB = float64(liveHeap()-base) / (1 << 20)
	return t, nil
}

// maxRate searches for the highest offered rate whose segment passes the
// limits, returning it with the probes and their clusters' setup times: a first probe at the workload's rate, then doubling until a probe
// fails (or halving until one passes), then bisection in log space. Each
// probe runs on a fresh cluster after a short warm-up, so it prices the
// rate itself rather than the uptime the main window left behind.
func (b *bench) maxRate(dur time.Duration) (float64, []*segment, []float64, error) {
	lo, hi := 0.0, 0.0
	var tried []*segment
	var setups []float64
	for i := 0; i < probes; i++ {
		var r float64
		switch {
		case i == 0:
			r = float64(b.p.rate)
		case hi == 0:
			r = lo * 2
		case lo == 0:
			r = hi / 2
		default:
			r = math.Sqrt(lo * hi)
		}
		s, setup, err := b.probe(int(r), dur)
		if err != nil {
			return 0, tried, setups, err
		}
		tried, setups = append(tried, s), append(setups, setup)
		if s.pass() {
			lo = r
		} else {
			hi = r
		}
	}
	if lo == 0 {
		// Every probe failed: the lowest one tried bounds the rate from above.
		return hi, tried, setups, nil
	}
	return lo, tried, setups, nil
}

// probeWarmUp is each max-rate probe's untimed warm-up at its own rate.
const probeWarmUp = 500 * time.Millisecond

func (b *bench) probe(rate int, dur time.Duration) (*segment, float64, error) {
	d, setup, err := newCluster(b.p, b.spec, nil)
	if err != nil {
		return nil, 0, err
	}
	defer d.Close()
	prev := b.d
	b.d = d
	defer func() { b.d = prev }()
	if _, err := b.run(rate, probeWarmUp); err != nil {
		return nil, 0, err
	}
	s, err := b.run(rate, dur)
	return s, setup, err
}

func probeSummary(tried []*segment) string {
	s := "probes:"
	for _, t := range tried {
		mark := "fail"
		if t.pass() {
			mark = "ok"
		}
		s += fmt.Sprintf(" %d=%s(p99 %.2fms last-lag %.2fms failed %d)", t.rate, mark,
			subQuantile(t.check.subLat, 0.99), t.lastLag.quantileMs(0.5), t.verdict.failed())
	}
	return s
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}
