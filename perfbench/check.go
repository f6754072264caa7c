package main

import (
	"fmt"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/oracle"
	"difane/internal/packet"
	"difane/internal/wire"
)

// fifo holds a header's outstanding packets, oldest first, plus the
// egress the oracle expects for that header.
type fifo struct {
	egress uint32
	pkts   []outPkt
	head   int
}

// outPkt is one outstanding packet: its tick's injection lateness and the
// sub-window (second of the segment) the tick fell in.
type outPkt struct {
	late int64
	sub  int32
}

// checker is the egress consumer: it matches every Delivery against the
// oldest outstanding packet with the same header, checks it against the
// oracle verdict recorded at generation, and times it from its due time.
// Its memory is bounded by the packets in flight (plus any lost), not by
// run length. One goroutine owns it.
type checker struct {
	out  map[packet.Header]*fifo
	free []*fifo

	lat   hist // every delivered packet, from its due time
	first hist // detoured packets only: the flow-setup delay
	// subLat splits lat by sub-window.
	subLat []hist

	// expHole counts packets the oracle says fall into a policy hole.
	expHole  uint64
	notified uint64
	wrong    uint64

	// detours, when non-nil, collects the keys of detoured deliveries (up
	// to its capacity) for the traced run's replays.
	detours []flowspace.Key
}

func newChecker(subs int) *checker {
	return &checker{
		out:    make(map[packet.Header]*fifo),
		subLat: make([]hist, subs),
	}
}

// register records one tick's packets as outstanding; late is how long
// after the tick's due time its InjectBatch call started, sub the tick's
// sub-window.
func (c *checker) register(ps []pkt, late int64, sub int) {
	for i := range ps {
		p := &ps[i]
		switch p.verdict.Kind {
		case oracle.Deliver:
			h := packet.HeaderFromKey(p.key)
			f := c.out[h]
			if f == nil {
				f = c.newFifo(p.verdict.Egress)
				c.out[h] = f
			}
			f.pkts = append(f.pkts, outPkt{late: late, sub: int32(sub)})
		case oracle.Hole:
			c.expHole++
		}
	}
}

func (c *checker) newFifo(egress uint32) *fifo {
	if n := len(c.free); n > 0 {
		f := c.free[n-1]
		c.free = c.free[:n-1]
		f.egress = egress
		return f
	}
	return &fifo{egress: egress}
}

// deliver accounts one Delivery. It reports false when no outstanding
// packet has the delivery's header, so the caller can register pending
// ticks and retry before counting it wrong.
func (c *checker) deliver(d *wire.Delivery) bool {
	f := c.out[d.Header]
	if f == nil {
		return false
	}
	o := f.pkts[f.head]
	f.head++
	if f.head == len(f.pkts) {
		delete(c.out, d.Header)
		f.pkts, f.head = f.pkts[:0], 0
		c.free = append(c.free, f)
	}
	c.notified++
	if d.Egress != f.egress {
		c.wrong++
	}
	v := o.late + int64(d.Latency)
	c.lat.add(v)
	c.subLat[o.sub].add(v)
	if d.Detour {
		c.first.add(v)
		if c.detours != nil && len(c.detours) < cap(c.detours) {
			c.detours = append(c.detours, d.Header.Key())
		}
	}
	return true
}

// unexpected counts a delivery that matches no outstanding packet: the
// oracle said drop, or the packet was delivered twice.
func (c *checker) unexpected() {
	c.notified++
	c.wrong++
}

// lost is the number of expected deliveries that never arrived.
func (c *checker) lost() uint64 {
	var n uint64
	for _, f := range c.out {
		n += uint64(len(f.pkts) - f.head)
	}
	return n
}

// counters are the cumulative cluster counters a segment diffs.
type counters struct {
	delivered, redirects               uint64
	policy, hole, queue, shed, unreach uint64
	deaths, failovers                  uint64
}

func countersOf(m *core.Measurements) counters {
	return counters{
		delivered: m.Delivered, redirects: m.Redirects,
		policy: m.Drops.Policy, hole: m.Drops.Hole, queue: m.Drops.AuthorityQueue,
		shed: m.Drops.RedirectShed, unreach: m.Drops.Unreachable,
		deaths: m.AuthorityDeaths, failovers: m.FailoversLocal + m.FailoversPromoted,
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		delivered: a.delivered - b.delivered, redirects: a.redirects - b.redirects,
		policy: a.policy - b.policy, hole: a.hole - b.hole, queue: a.queue - b.queue,
		shed: a.shed - b.shed, unreach: a.unreach - b.unreach,
		deaths: a.deaths - b.deaths, failovers: a.failovers - b.failovers,
	}
}

func (a counters) terminal() uint64 {
	return a.delivered + a.policy + a.hole + a.queue + a.shed + a.unreach
}

// verdict is a segment's outcome check against the oracle.
type verdict struct {
	// wrong counts deliveries the oracle contradicts: the wrong egress, or
	// a packet delivered that the oracle drops (or delivered twice).
	wrong uint64
	// lost counts expected packets the network did not deliver for a
	// reason other than policy: drops to holes the oracle did not predict
	// (a partition whose authority was declared dead), full queues, shed
	// redirects, unreachable switches.
	lost uint64
	// broken lists violated invariants: wrong deliveries or a broken
	// accounting identity.
	broken []string
	// invalid marks a segment whose Delivery notifications fell short of
	// the cluster's delivered count: its latencies cannot be scored.
	invalid bool
}

// failed counts packets whose outcome disagrees with the oracle or that
// were dropped for a reason other than policy: the numerator of fail_frac.
func (v verdict) failed() uint64 { return v.wrong + v.lost }

// judge checks a quiesced segment: offered packets, the checker that drained
// it, and the cluster counters' change over it.
func judge(offered uint64, c *checker, d counters) verdict {
	v := verdict{wrong: c.wrong}
	// Hole drops the oracle predicted are policy outcomes; every other
	// non-policy drop is a loss.
	nonPolicy := d.hole + d.queue + d.shed + d.unreach
	if nonPolicy >= c.expHole {
		nonPolicy -= c.expHole
	} else {
		nonPolicy = 0
	}
	v.lost = max(c.lost(), nonPolicy)
	if c.wrong > 0 {
		v.broken = append(v.broken, fmt.Sprintf("%d deliveries disagree with the oracle", c.wrong))
	}
	if d.terminal() != offered {
		v.broken = append(v.broken, fmt.Sprintf("accounting identity broken: offered %d, delivered+drops %d", offered, d.terminal()))
	}
	v.invalid = c.notified < d.delivered
	return v
}
