package main

import (
	"syscall"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/wire"
	"difane/internal/workload"
)

// tickRecord hands one tick's packets and their injection lateness from
// the generator to the checker. Records cycle through a free list.
type tickRecord struct {
	pkts []pkt
	late int64
	sub  int
}

// subWindows splits each segment into this many sub-windows of ticks, so a
// probe's verdict can rest on the typical sub-window rather than on one
// disturbed stretch.
const subWindows = 5

// recordBuffer sizes the generator→checker channel and the free list: a
// second of ticks, so a checker descheduled for a while never blocks the
// generator.
const recordBuffer = 1024

// relayBuffer sizes the notification relay: about half a second of
// deliveries at the highest rate probed.
const relayBuffer = 1 << 16

// bench drives one cluster with paced open-loop segments. The calling
// goroutine generates and injects; one more goroutine drains deliveries.
type bench struct {
	p    profile
	spec *workload.Spec
	gen  *generator
	d    *wire.Deployment
	tr   *tracer // nil in untraced runs

	pace *pacer
	free chan *tickRecord
	// relay carries notifications pump took off the cluster's channel.
	relay chan wire.Delivery
	batch []core.PacketIn
	seq   uint64
	ticks uint64 // ticks run so far, for span group IDs

	// detourCap, when >0, makes the checker keep that many detoured keys;
	// sampleCap, when >0, makes run keep about that many injected packets,
	// evenly strided over the segment, in sample.
	detourCap int
	sampleCap int
	sample    []core.PacketIn
}

// segment is the outcome of one open-loop segment at a fixed rate.
type segment struct {
	rate    int
	offered uint64
	check   *checker
	lag     hist // InjectBatch call start minus the tick's due time
	lastLag hist // lag over the last sub-window's worth of ticks
	delta   counters
	verdict verdict
	cpu     time.Duration // process user+system CPU over ticks and quiesce
	wall    time.Duration
	quiesce time.Duration // Run after the last tick

	// Traced runs only: total InjectBatch time, calls, and calls that took
	// longer than a tick.
	injectNs    int64
	injectCalls int
	stalls      int
}

func (s *segment) cpuUsPerPkt() float64 {
	return float64(s.cpu.Microseconds()) / float64(max(s.offered, 1))
}

// pass reports whether the segment meets the max-rate limits: p99 latency
// at most 10 ms in the median sub-window, no failed packet, and no growing
// backlog — the median lag of the last sub-window under one tick. (The lag
// p99 itself reaches a tick even at a tenth of the workload's rate: a
// data-plane burst holds one of the runtime's two Ps for milliseconds.
// Bounding it would make the search return its lowest probe.)
func (s *segment) pass() bool {
	return subQuantile(s.check.subLat, 0.99) <= 10 &&
		s.verdict.failed() == 0 && len(s.verdict.broken) == 0 && !s.verdict.invalid &&
		s.lastLag.quantile(0.5) < int64(tick)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run offers rate packets/s for dur, one InjectBatch per tick, then waits
// for the cluster to quiesce and checks every packet against the oracle.
func (b *bench) run(rate int, dur time.Duration) (*segment, error) {
	ticks := int(dur / tick)
	subLen := max(1, (ticks+subWindows-1)/subWindows)
	s := &segment{rate: rate, check: newChecker(subWindows)}
	if b.detourCap > 0 {
		s.check.detours = make([]flowspace.Key, 0, b.detourCap)
	}
	b.discardStale()
	c0 := countersOf(b.d.Measurements())

	records := make(chan *tickRecord, recordBuffer)
	done := make(chan struct{})
	go drain(s.check, records, b.free, b.d.C.Deliveries, b.relay, done)

	perTick := float64(rate) * tick.Seconds()
	acc := 0.0
	stride := 1
	if b.sampleCap > 0 {
		stride = max(1, int(float64(ticks)*perTick)/b.sampleCap)
		b.sample = b.sample[:0]
	}
	cpu0, wall0 := cpuTime(), time.Now()
	t0 := wall0.Add(tick)
	if err := b.pace.start(t0, tick); err != nil {
		return nil, err
	}
	for i := 0; i < ticks; i++ {
		b.ticks++
		group := b.ticks
		tickID, tickStart := b.tr.open()

		genStart := b.tr.now()
		acc += perTick
		n := int(acc)
		acc -= float64(n)
		rec := b.record()
		rec.pkts = b.gen.next(n, rec.pkts[:0])
		b.batch = b.batch[:0]
		for _, p := range rec.pkts {
			b.batch = append(b.batch, core.PacketIn{Ingress: p.ingress, Key: p.key, Size: pktSize, Seq: b.seq})
			if b.sampleCap > 0 && b.seq%uint64(stride) == 0 && len(b.sample) < b.sampleCap {
				b.sample = append(b.sample, b.batch[len(b.batch)-1])
			}
			b.seq++
		}
		s.offered += uint64(n)
		b.tr.span("bench.generate", tickID, group, genStart)

		due := t0.Add(time.Duration(i) * tick)
		waitStart := b.tr.now()
		if err := b.pace.waitUntil(due); err != nil {
			// Stop the checker before giving up on the segment.
			close(records)
			<-done
			return nil, err
		}
		b.tr.span("bench.wait", tickID, group, waitStart)
		callStart := time.Now()
		rec.late, rec.sub = int64(callStart.Sub(due)), i/subLen
		s.lag.add(rec.late)
		if i >= ticks-subLen {
			s.lastLag.add(rec.late)
		}
		records <- rec
		injStart := b.tr.now()
		b.d.InjectBatch(b.batch)
		if b.tr != nil {
			took := b.tr.span("wire.InjectBatch", tickID, group, injStart)
			s.injectNs += took
			s.injectCalls++
			if took > int64(tick) {
				s.stalls++
			}
		}
		b.pump()
		b.tr.close(tickID, "tick", 0, group, tickStart)
	}
	if err := b.pace.stop(); err != nil {
		close(records)
		<-done
		return nil, err
	}
	qStart := time.Now()
	runID, runStart := b.tr.open()
	b.d.Run(5)
	b.tr.close(runID, "wire.Run", 0, b.ticks, runStart)
	s.quiesce = time.Since(qStart)
	s.cpu, s.wall = cpuTime()-cpu0, time.Since(wall0)
	// Run returned, so every notification for this segment is queued:
	// closing records tells the checker to drain them and stop.
	close(records)
	<-done
	s.delta = countersOf(b.d.Measurements()).sub(c0)
	s.verdict = judge(s.offered, s.check, s.delta)
	return s, nil
}

// pump moves queued delivery notifications into the relay. The cluster
// drops notifications (never packets) once its channel is full, and after
// a data-plane stall the backlog floods it faster than one descheduled
// checker drains it; the generator pumps once per tick so two goroutines
// keep it from overflowing.
func (b *bench) pump() {
	for {
		select {
		case d := <-b.d.C.Deliveries:
			select {
			case b.relay <- d:
			default: // lost: the segment's notification count shows it
			}
		default:
			return
		}
	}
}

func (b *bench) record() *tickRecord {
	select {
	case r := <-b.free:
		return r
	default:
		return &tickRecord{}
	}
}

// discardStale empties the delivery channel before a segment. It is empty
// unless the previous segment's Run timed out, which that segment's
// accounting identity already reports.
func (b *bench) discardStale() {
	for {
		select {
		case <-b.d.C.Deliveries:
		default:
			return
		}
	}
}

// drain is the egress consumer. It registers tick records and matches
// deliveries until records is closed, then drains the notifications left
// in the channel and signals done.
func drain(c *checker, records <-chan *tickRecord, free chan<- *tickRecord, dels, relay <-chan wire.Delivery, done chan<- struct{}) {
	defer close(done)
	closed := false
	take := func(r *tickRecord) {
		c.register(r.pkts, r.late, r.sub)
		select {
		case free <- r:
		default:
		}
	}
	// pending registers records already queued: a delivery can overtake
	// its tick's record in the select below, never its send.
	pending := func() {
		for !closed {
			select {
			case r, ok := <-records:
				if !ok {
					closed = true
					return
				}
				take(r)
			default:
				return
			}
		}
	}
	handle := func(d *wire.Delivery) {
		if c.deliver(d) {
			return
		}
		pending()
		if !c.deliver(d) {
			c.unexpected()
		}
	}
	for !closed {
		select {
		case r, ok := <-records:
			if !ok {
				closed = true
				break
			}
			take(r)
		case d := <-dels:
			handle(&d)
		case d := <-relay:
			handle(&d)
		}
	}
	for {
		select {
		case d := <-dels:
			handle(&d)
		case d := <-relay:
			handle(&d)
		default:
			return
		}
	}
}
