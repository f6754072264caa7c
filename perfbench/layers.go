package main

import (
	"fmt"
	"runtime"
	"time"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/telemetry"
	"difane/internal/wire"
)

// Traced-run window split: an untraced window prices the run without spans
// (and gives the runtime.* allocation figures), then a traced window of the
// same traffic records spans around every call; the replays follow.
const (
	untracedShare = 0.35
	tracedShare   = 0.4
	// replayBudget is the minimum time each timed replay loop runs.
	replayBudget = 200 * time.Millisecond
	// Caps on the inputs recorded in the traced window for the replays.
	detourCap = 4000
	sampleCap = 100000
)

// scraper accumulates the traced window's 1 Hz observations.
type scraper struct {
	scrapes    []int64 // Cluster.Telemetry() durations, ns
	evals      []int64 // watchdog EvalOnce durations, ns
	cacheLens  []float64
	first      *telemetry.Snapshot
	last       *telemetry.Snapshot
	firstAt    time.Time
	lastAt     time.Time
	watchdog   *telemetry.Watchdog
	watchStart time.Time
}

func runTraced(rep *report, p profile, seed int64, window time.Duration, spanPath string) error {
	spec := perfSpec()
	b, err := newBench(p, spec, seed)
	if err != nil {
		return err
	}
	defer b.pace.close()
	tr := newTracer()
	d, _, err := newCluster(p, spec, tr)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
	b.d = d
	if _, err := b.run(p.rate, p.warmUp); err != nil {
		return err
	}

	// Untraced window: CPU without spans, and the runtime's allocation and
	// GC figures.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u, err := b.run(p.rate, time.Duration(float64(window)*untracedShare))
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	rep.check("untraced window", u)
	fmt.Fprintf(rep.out, "untraced window, one cluster from %.1fs of uptime: lat p50 %.3fms p99 %.3fms (n=%d), first p50 %.3fms p99 %.3fms (n=%d), gen lag p99 %.3fms, deaths %d, failed %d of %d\n",
		p.warmUp.Seconds(), u.check.lat.quantileMs(0.5), u.check.lat.quantileMs(0.99), u.check.lat.n,
		u.check.first.quantileMs(0.5), u.check.first.quantileMs(0.99), u.check.first.n,
		u.lag.quantileMs(0.99), u.delta.deaths, u.verdict.failed(), u.offered)

	// Traced window.
	ps := &scraper{
		watchdog:   telemetry.NewWatchdog(d.C.Registry(), telemetry.DefaultHealthRules(telemetry.HealthConfig{})),
		watchStart: time.Now(),
	}
	b.tr, b.detourCap, b.sampleCap = tr, detourCap, sampleCap
	// The scraper records into its own tracer (same clock, its own span
	// IDs), merged once it has stopped.
	scrapeTr := &tracer{t0: tr.t0, next: 1 << 40}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go ps.scrape(d.C, scrapeTr, stop, stopped)
	s, err := b.run(p.rate, time.Duration(float64(window)*tracedShare))
	close(stop)
	<-stopped
	tr.spans = append(tr.spans, scrapeTr.spans...)
	b.tr, b.detourCap, b.sampleCap = nil, 0, 0
	if err != nil {
		return err
	}
	rep.check("traced window", s)

	id, start := tr.open()
	d.C.Measurements()
	measurements := tr.close(id, "wire.Measurements", 0, 0, start)
	peak := d.C.PeakQueueDepth()
	goroutines := runtime.NumGoroutine()
	tables := map[uint32][3][]flowspace.Rule{}
	for _, sw := range d.C.SwitchIDs() {
		id, start := tr.open()
		tables[sw] = [3][]flowspace.Rule{
			d.C.TableRules(sw, proto.TablePartition),
			d.C.TableRules(sw, proto.TableAuthority),
			d.C.TableRules(sw, proto.TableCache),
		}
		tr.close(id, "wire.TableRules", 0, 0, start)
	}
	closed = true
	id, start = tr.open()
	err = d.Close()
	tr.close(id, "wire.Close", 0, 0, start)
	if err != nil {
		return fmt.Errorf("close deployment: %w", err)
	}

	win := s.wall.Seconds()
	pkts := float64(max(s.offered, 1))
	set := func(name string, v float64, unit string) { rep.set(name, v, unit, "") }

	set("wire.inject_ns_per_pkt", float64(s.injectNs)/pkts, "ns")
	set("wire.inject_stall_frac", float64(s.stalls)/float64(max(s.injectCalls, 1)), "frac")
	set("wire.ring_peak_depth", float64(peak), "count")
	set("wire.quiesce_ms", float64(s.quiesce)/1e6, "ms")
	set("wire.redirect_frac", float64(s.delta.redirects)/pkts, "frac")
	set("wire.goroutines", float64(goroutines), "count")
	// The end-to-end footprint of the stalls that grow with uptime, over
	// the untraced window of this run's single long-lived cluster.
	set("wire.uptime_lat_p99_ms", u.check.lat.quantileMs(0.99), "ms")
	set("wire.uptime_fail_frac", float64(u.verdict.failed())/float64(max(u.offered, 1)), "frac")

	set("tcam.cache_entries", mean(ps.cacheLens), "count")
	set("tcam.evictions_per_s", ps.rate("difane_switch_cache_evictions_total"), "1/s")
	set("cachepolicy.cost_evictions_per_s", ps.rate("difane_cache_cost_evictions_total"), "1/s")
	set("telemetry.scrape_ms_first", nsToMs(first(ps.scrapes)), "ms")
	set("telemetry.scrape_ms_last", nsToMs(last(ps.scrapes)), "ms")
	set("telemetry.watchdog_eval_ms", nsToMs(int64(mean(int64s(ps.evals)))), "ms")
	set("metrics.measurements_ms", nsToMs(measurements), "ms")
	// Deaths and failovers over the untraced window: no fault injected and
	// no external scraper running.
	set("bfd.false_deaths", float64(u.delta.deaths), "count")
	set("bfd.failovers", float64(u.delta.failovers), "count")

	uPkts := float64(max(u.offered, 1))
	set("runtime.allocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/uPkts, "count")
	set("runtime.bytes_per_pkt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/uPkts, "B")
	set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	set("bench.trace_overhead_frac", s.cpuUsPerPkt()/u.cpuUsPerPkt()-1, "frac")

	r := &replayer{p: p, spec: spec, tr: tr, detours: s.check.detours, sample: b.sample, tables: tables}
	if err := r.all(set); err != nil {
		return err
	}

	fmt.Fprintf(rep.out, "traced window: %.2fs, offered %d, detoured keys kept %d, packet sample %d\n",
		win, s.offered, len(s.check.detours), len(b.sample))
	fmt.Fprintln(rep.out, "span self time (ms), by name:")
	for _, st := range tr.selfTimes() {
		fmt.Fprintf(rep.out, "  %-32s count %8d  total %10.3f  self %10.3f\n",
			st.name, st.count, float64(st.total)/1e6, float64(st.self)/1e6)
	}
	if err := tr.write(spanPath); err != nil {
		return err
	}
	fmt.Fprintf(rep.out, "spans: %d written to %s\n", len(tr.spans), spanPath)
	rep.res.Attempted = u.offered + s.offered
	rep.res.Failed = u.verdict.wrong + s.verdict.wrong
	return nil
}

// scrape is the traced window's external scraper: once a second, one
// telemetry scrape, one watchdog evaluation and one CacheLen pass, each in
// its own span, until stop is closed.
func (ps *scraper) scrape(c *wire.Cluster, tr *tracer, stop <-chan struct{}, stopped chan<- struct{}) {
	defer close(stopped)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for group := uint64(1 << 40); ; group++ {
		select {
		case <-stop:
			return
		case <-t.C:
			ps.observe(c, tr, group)
		}
	}
}

func (ps *scraper) observe(c *wire.Cluster, tr *tracer, group uint64) {
	id, start := tr.open()
	snap := c.Telemetry()
	ps.scrapes = append(ps.scrapes, tr.close(id, "telemetry.Telemetry", 0, group, start))
	now := time.Now()
	if ps.first == nil {
		ps.first, ps.firstAt = snap, now
	}
	ps.last, ps.lastAt = snap, now

	// The watchdog here is a second one over the cluster's registry, so the
	// cluster's own health loop keeps its evaluation windows.
	id, start = tr.open()
	ps.watchdog.EvalOnce(int64(time.Since(ps.watchStart)))
	ps.evals = append(ps.evals, tr.close(id, "telemetry.Watchdog.EvalOnce", 0, group, start))

	id, start = tr.open()
	total := 0
	ids := c.SwitchIDs()
	for _, sw := range ids {
		total += c.CacheLen(sw)
	}
	tr.close(id, "wire.CacheLen", 0, group, start)
	ps.cacheLens = append(ps.cacheLens, float64(total)/float64(len(ids)))
}

// rate is a counter's per-second increase between the first and last
// scrape, summed over its labelled points (0 when the metric is absent).
func (ps *scraper) rate(name string) float64 {
	if ps.first == nil || !ps.lastAt.After(ps.firstAt) {
		return 0
	}
	return (sumPoints(ps.last, name) - sumPoints(ps.first, name)) / ps.lastAt.Sub(ps.firstAt).Seconds()
}

func sumPoints(s *telemetry.Snapshot, name string) float64 {
	total := 0.0
	for _, m := range s.Metrics {
		if m.Name == name {
			for _, p := range m.Points {
				total += p.Value
			}
		}
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func first(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

func last(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
