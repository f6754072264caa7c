package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/oracle"
	"difane/internal/topo"
	"difane/internal/wire"
	"difane/internal/workload"
)

// tick is the pacing quantum: one InjectBatch per tick, and every packet of
// a tick is due at the tick's start.
const tick = time.Millisecond

// pktSize is the smallest packet size, where per-packet cost dominates.
const pktSize = 64

// policySeed fixes the 256-rule policy and the Zipf flow population (which
// identities exist and where they enter), so every seed runs against the
// same partitions and the same hot flows: with α = 1.4 the top identity alone
// carries about a third of the Zipf packets, and its path would otherwise
// dominate the seed-to-seed spread. --seed drives the traffic over them:
// flow arrivals, flow lengths and scan keys.
const policySeed = 42

// profile is one benchmark workload: its offered rate, traffic mix and the
// cache settings it runs the cluster with. Everything else is the cluster's
// defaults (BFD, health loop, tracing off) plus the perf spec's QueueDepth.
type profile struct {
	name string
	// rate is the offered load of the trials and the first max-rate probe,
	// in packets/s.
	rate int
	// scan is the share of packets carrying a fresh uniform key (a
	// one-packet flow); the rest come from the Zipf flow process.
	scan   float64
	warmUp time.Duration

	cacheCapacity int
	tcamBudget    int
	eviction      core.EvictionChoice
	cacheIdle     float64
}

// profiles are the workloads; BENCHMARK.json records why each was chosen.
var profiles = []profile{
	{
		// Almost every packet hits an ingress cache: injection, ring
		// handoff, ClassifyBurst, delivery and the health tick do the work.
		name:   "zipf-cached",
		rate:   100000,
		warmUp: time.Second,
	},
	{
		// Fresh one-packet flows into 64-entry LRU caches: HandleMiss,
		// cover synthesis, cache installs and TCAM churn beside lookups.
		name:          "miss-storm",
		rate:          10000,
		scan:          1,
		warmUp:        500 * time.Millisecond,
		cacheCapacity: 64,
	},
	{
		// zipf-cached's traffic plus 10% never-repeated scan keys under a
		// TCAM budget with cost-aware eviction: the cachepolicy scorer,
		// its adapt loop, budget enforcement and cache pollution.
		name:       "churn-budget",
		rate:       50000,
		scan:       0.1,
		warmUp:     time.Second,
		tcamBudget: 250,
		eviction:   core.EvictCostAware,
		cacheIdle:  1,
	},
}

func lookupProfile(name string) (profile, error) {
	names := make([]string, 0, len(profiles))
	for _, p := range profiles {
		if p.name == name {
			return p, nil
		}
		names = append(names, p.name)
	}
	return profile{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// authorities are the perf spec's authority hosts for 8 switches.
var authorities = []uint32{2, 6}

// perfSpec is the perf spec shape: 8 switches on a chain, each an edge and
// an egress, and a 256-rule ClassBench-like policy forwarding among them.
func perfSpec() *workload.Spec {
	const switches = 8
	edges := make([]uint32, switches)
	for i := range edges {
		edges[i] = uint32(i)
	}
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 256, MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: edges, Seed: policySeed,
	})
	return &workload.Spec{
		Name: "perf", Graph: topo.Linear(switches, 0.0001), Edges: edges, Policy: policy,
	}
}

func (p profile) clusterConfig(spec *workload.Spec) wire.ClusterConfig {
	return wire.ClusterConfig{
		Switches:      spec.Edges,
		Authorities:   authorities,
		Policy:        spec.Policy,
		Strategy:      core.StrategyCover,
		QueueDepth:    4096,
		CacheCapacity: p.cacheCapacity,
		CacheEviction: p.eviction,
		TCAMBudget:    p.tcamBudget,
		CacheIdle:     p.cacheIdle,
	}
}

// Zipf flow process parameters: popularity over population identities,
// 1+Exp(4) packets per flow (mean ~4.5), one packet every gapTicks.
const (
	population = 100000
	zipfAlpha  = 1.4
	pktsMean   = 4.0
	gapTicks   = 2
	// wheelTicks bounds how far ahead a flow's packets are scheduled; it
	// caps a flow at wheelTicks/gapTicks packets.
	wheelTicks = 256
)

// member is one flow identity: a concrete key inside some policy rule,
// entering at a fixed ingress. The oracle verdict is memoised on first use.
type member struct {
	key     flowspace.Key
	ingress uint32
	known   bool
	verdict oracle.Verdict
}

// pkt is one generated packet with its oracle verdict.
type pkt struct {
	key     flowspace.Key
	ingress uint32
	verdict oracle.Verdict
}

// generator streams the packet schedule tick by tick. Its memory is fixed
// (population, a ring of future ticks), independent of run length, and the
// schedule depends only on the seed and the sequence of tick sizes asked for.
type generator struct {
	spec  *workload.Spec
	scan  float64
	pop   []member
	zipf  *rand.Zipf
	flows *rand.Rand // flow arrivals and lengths
	keys  *rand.Rand // scan keys

	// wheel[t%wheelTicks] lists the population indices whose flows have a
	// packet due at tick t; carry holds packets deferred from full ticks.
	wheel [wheelTicks][]int32
	carry []int32
	t     int
	// scanAcc accumulates the fractional scan share across ticks so the
	// scan packets make up exactly their share of the offered load.
	scanAcc float64
	// pos and tmp are groupByIngress scratch.
	pos []int
	tmp []pkt
}

func newGenerator(spec *workload.Spec, p profile, seed int64) *generator {
	g := &generator{
		spec:  spec,
		scan:  p.scan,
		flows: rand.New(rand.NewSource(seed*3 + 1)),
		keys:  rand.New(rand.NewSource(seed*3 + 2)),
	}
	if p.scan < 1 {
		popRng := rand.New(rand.NewSource(policySeed))
		g.pop = make([]member, population)
		for i := range g.pop {
			g.pop[i] = member{key: g.randomKey(popRng), ingress: g.randomEdge(popRng)}
		}
		g.zipf = rand.NewZipf(g.flows, zipfAlpha, 1, population-1)
	}
	return g
}

// randomKey samples a concrete header inside a uniformly chosen policy rule.
func (g *generator) randomKey(rng *rand.Rand) flowspace.Key {
	r := g.spec.Policy[rng.Intn(len(g.spec.Policy))]
	var rv [flowspace.NumFields]uint64
	for f := range rv {
		rv[f] = rng.Uint64()
	}
	return r.Match.RandomKeyIn(rv)
}

func (g *generator) randomEdge(rng *rand.Rand) uint32 {
	return g.spec.Edges[rng.Intn(len(g.spec.Edges))]
}

func (g *generator) memberPkt(i int32) pkt {
	m := &g.pop[i]
	if !m.known {
		m.verdict = oracle.Evaluate(g.spec.Policy, m.key)
		m.known = true
	}
	return pkt{key: m.key, ingress: m.ingress, verdict: m.verdict}
}

// next appends the next tick's n packets to out, grouped by ingress in
// switch order (a stable counting sort), and returns it.
func (g *generator) next(n int, out []pkt) []pkt {
	start := len(out)
	g.scanAcc += float64(n) * g.scan
	scans := int(g.scanAcc)
	if scans > n {
		scans = n
	}
	g.scanAcc -= float64(scans)
	for i := 0; i < scans; i++ {
		k := g.randomKey(g.keys)
		out = append(out, pkt{
			key: k, ingress: g.randomEdge(g.keys), verdict: oracle.Evaluate(g.spec.Policy, k),
		})
	}
	if flows := n - scans; flows > 0 {
		out = g.flowPackets(flows, out)
	}
	g.t++
	g.groupByIngress(out[start:])
	return out
}

// flowPackets emits n packets of the Zipf flow process: continuations due
// now (deferred ones first), then new flows whose later packets are
// scheduled gapTicks apart on the wheel.
func (g *generator) flowPackets(n int, out []pkt) []pkt {
	slot := g.t % wheelTicks
	due := append(g.carry, g.wheel[slot]...)
	g.wheel[slot] = g.wheel[slot][:0]
	take := len(due)
	if take > n {
		take = n
	}
	for _, i := range due[:take] {
		out = append(out, g.memberPkt(i))
	}
	g.carry = append(g.carry[:0], due[take:]...)
	for emitted := take; emitted < n; emitted++ {
		i := int32(g.zipf.Uint64())
		out = append(out, g.memberPkt(i))
		pkts := 1 + int(g.flows.ExpFloat64()*pktsMean)
		if max := wheelTicks / gapTicks; pkts > max {
			pkts = max
		}
		for j := 1; j < pkts; j++ {
			s := (g.t + j*gapTicks) % wheelTicks
			g.wheel[s] = append(g.wheel[s], i)
		}
	}
	return out
}

// groupByIngress stably groups packets by ingress so InjectBatch hands
// each switch one burst per tick. Ingress IDs are 0..len(Edges)-1.
func (g *generator) groupByIngress(ps []pkt) {
	if len(g.pos) == 0 {
		g.pos = make([]int, len(g.spec.Edges))
	}
	sorted := true
	for i := range g.pos {
		g.pos[i] = 0
	}
	for i, p := range ps {
		g.pos[p.ingress]++
		if i > 0 && ps[i-1].ingress > p.ingress {
			sorted = false
		}
	}
	if sorted {
		return
	}
	at := 0
	for s, c := range g.pos {
		g.pos[s] = at
		at += c
	}
	g.tmp = append(g.tmp[:0], ps...)
	for _, p := range g.tmp {
		ps[g.pos[p.ingress]] = p
		g.pos[p.ingress]++
	}
}
