package main

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"difane/internal/oracle"
	"difane/internal/packet"
	"difane/internal/wire"
)

func schedule(t *testing.T, name string, seed int64, ticks, n int) []pkt {
	t.Helper()
	p, err := lookupProfile(name)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(perfSpec(), p, seed)
	var out []pkt
	for i := 0; i < ticks; i++ {
		out = g.next(n, out)
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, p := range profiles {
		a := schedule(t, p.name, 7, 300, 50)
		b := schedule(t, p.name, 7, 300, 50)
		if len(a) != 300*50 {
			t.Fatalf("%s: %d packets, want %d", p.name, len(a), 300*50)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 produced two different schedules", p.name)
		}
		if c := schedule(t, p.name, 8, 300, 50); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 produced the same schedule", p.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	spec := perfSpec()
	for _, name := range []string{"zipf-cached", "churn-budget"} {
		ps := schedule(t, name, 3, 2000, 50)
		keys := map[packet.Header]int{}
		for i, p := range ps {
			if v := oracle.Evaluate(spec.Policy, p.key); v != p.verdict {
				t.Fatalf("%s: packet %d carries verdict %v, oracle says %v", name, i, p.verdict, v)
			}
			if i%50 > 0 && ps[i-1].ingress > p.ingress {
				t.Fatalf("%s: tick %d not grouped by ingress", name, i/50)
			}
			keys[packet.HeaderFromKey(p.key)]++
		}
		// Zipf flows repeat keys: far fewer distinct keys than packets.
		if len(keys) > len(ps)/2 {
			t.Errorf("%s: %d distinct keys in %d packets", name, len(keys), len(ps))
		}
	}
}

func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	vals := make([]int64, 0, 100000)
	for i := 0; i < cap(vals); i++ {
		// Log-uniform from 10 ns to ~10 s.
		v := int64(math.Exp(math.Log(10) + rng.Float64()*math.Log(1e9)))
		vals = append(vals, v)
		h.add(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if rel := math.Abs(float64(got-exact)) / float64(exact); rel > 1.0/64 {
			t.Errorf("q%.3f: hist %d, exact %d, relative error %.4f > 1/64", q, got, exact, rel)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

// fakeRun pushes one tick through the real drain path: the tick's packets
// are registered with lateness late, then the given deliveries arrive.
func fakeRun(t *testing.T, ps []pkt, late time.Duration, dels []wire.Delivery) *checker {
	t.Helper()
	c := newChecker(1)
	records := make(chan *tickRecord, 1)
	free := make(chan *tickRecord, 1)
	delCh := make(chan wire.Delivery, len(dels))
	relay := make(chan wire.Delivery)
	done := make(chan struct{})
	for _, d := range dels {
		delCh <- d
	}
	records <- &tickRecord{pkts: ps, late: int64(late)}
	close(records)
	drain(c, records, free, delCh, relay, done)
	<-done
	return c
}

func testPacket(t *testing.T) pkt {
	t.Helper()
	spec := perfSpec()
	g := newGenerator(spec, profiles[1], 1)
	for {
		p := g.next(1, nil)[0]
		if p.verdict.Kind == oracle.Deliver {
			return p
		}
	}
}

func TestWrongEgressRaisesFailFrac(t *testing.T) {
	p := testPacket(t)
	h := packet.HeaderFromKey(p.key)
	delivered := counters{delivered: 1}

	good := fakeRun(t, []pkt{p}, 0, []wire.Delivery{{Egress: p.verdict.Egress, Header: h}})
	if v := judge(1, good, delivered); v.failed() != 0 || len(v.broken) != 0 || v.invalid {
		t.Fatalf("correct delivery judged %+v", v)
	}

	wrong := fakeRun(t, []pkt{p}, 0, []wire.Delivery{{Egress: p.verdict.Egress + 1, Header: h}})
	v := judge(1, wrong, delivered)
	if v.wrong != 1 || v.failed() != 1 || len(v.broken) == 0 {
		t.Fatalf("wrong-egress delivery judged %+v, want 1 wrong and a broken check", v)
	}

	lost := fakeRun(t, []pkt{p}, 0, nil)
	if v := judge(1, lost, counters{hole: 1}); v.lost != 1 || v.wrong != 0 || v.failed() != 1 || len(v.broken) != 0 {
		t.Fatalf("hole-dropped packet judged %+v, want 1 lost, none wrong", v)
	}

	if v := judge(1, lost, delivered); !v.invalid {
		t.Fatal("a delivery without its notification must make the segment invalid")
	}
	if v := judge(2, good, delivered); len(v.broken) == 0 {
		t.Fatal("an offered packet with no terminal outcome must break the accounting identity")
	}
}

func TestTickLatenessAddsToLatency(t *testing.T) {
	p := testPacket(t)
	h := packet.HeaderFromKey(p.key)
	c := fakeRun(t, []pkt{p}, 3*time.Millisecond, []wire.Delivery{
		{Egress: p.verdict.Egress, Header: h, Latency: 2 * time.Millisecond, Detour: true},
	})
	want := float64(5 * time.Millisecond)
	for name, got := range map[string]int64{"lat": c.lat.quantile(1), "first": c.first.quantile(1)} {
		if math.Abs(float64(got)-want)/want > 1.0/64 {
			t.Errorf("%s latency %v, want lateness 3ms + delivery 2ms", name, time.Duration(got))
		}
	}
}

func TestDeliveryBeforeItsRecordIsMatched(t *testing.T) {
	for i := 0; i < 50; i++ {
		deliveryBeforeRecord(t)
	}
}

func deliveryBeforeRecord(t *testing.T) {
	p := testPacket(t)
	c := newChecker(1)
	records := make(chan *tickRecord, 1)
	delCh := make(chan wire.Delivery, 1)
	done := make(chan struct{})
	// Both are queued before drain starts, and its select may take the
	// notification first: drain must register the queued record before
	// counting the delivery unexpected.
	delCh <- wire.Delivery{Egress: p.verdict.Egress, Header: packet.HeaderFromKey(p.key)}
	records <- &tickRecord{pkts: []pkt{p}}
	close(records)
	drain(c, records, make(chan *tickRecord, 1), delCh, make(chan wire.Delivery), done)
	if c.wrong != 0 || c.notified != 1 || c.lost() != 0 {
		t.Fatalf("wrong %d notified %d lost %d, want 0 1 0", c.wrong, c.notified, c.lost())
	}
}
