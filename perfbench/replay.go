package main

import (
	"fmt"
	"sort"
	"time"

	"difane/internal/cachepolicy"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/tcam"
	"difane/internal/workload"
)

// replayer re-runs the traced window's recorded inputs through single
// layers, after the cluster is closed so nothing else competes for CPU.
// Every replay pass is one span; state a pass mutates is rebuilt outside
// the timed region.
type replayer struct {
	p       profile
	spec    *workload.Spec
	tr      *tracer
	detours []flowspace.Key
	sample  []core.PacketIn
	tables  map[uint32][3][]flowspace.Rule
	pass    uint64
}

// timed runs setup then fn, each fn pass in its own span, until at least
// replayBudget of fn time has accumulated, and returns ns per operation
// for n operations per pass (0 when n is 0).
func (r *replayer) timed(name string, n int, setup, fn func()) float64 {
	if n == 0 {
		return 0
	}
	var total int64
	passes := 0
	for passes == 0 || total < int64(replayBudget) {
		if setup != nil {
			setup()
		}
		r.pass++
		id, start := r.tr.open()
		fn()
		total += r.tr.close(id, name, 0, r.pass, start)
		passes++
	}
	return float64(total) / float64(passes*n)
}

func (r *replayer) all(set func(name string, v float64, unit string)) error {
	policy := r.spec.Policy

	// core: partitioning and assignment, as NewCluster runs them.
	var assign core.Assignment
	var assignErr error
	partNs := r.timed("core.BuildPartitions+Assign", 1, nil, func() {
		assign, assignErr = core.Assign(core.BuildPartitions(policy, core.PartitionConfig{}), authorities)
	})
	if assignErr != nil {
		return fmt.Errorf("replay assign: %w", assignErr)
	}
	set("core.partition_ms", partNs/1e6, "ms")
	set("core.authority_entries", float64(core.TotalEntries(assign.Partitions)), "count")

	// The detoured keys, each with its partition and its hit rule there.
	type missIn struct {
		key       flowspace.Key
		part, hit int
	}
	var misses []missIn
	for _, k := range r.detours {
		for i, p := range assign.Partitions {
			if !p.Region.Matches(k) {
				continue
			}
			if rule, ok := flowspace.EvalTable(p.Rules, k); ok {
				for h := range p.Rules {
					if p.Rules[h].ID == rule.ID {
						misses = append(misses, missIn{key: k, part: i, hit: h})
						break
					}
				}
			}
			break
		}
	}

	// core: HandleMiss on fresh authorities (cold memo, as for new flows).
	var auths []*core.Authority
	var installs []*proto.CacheInstall
	coverRules := 0
	newAuths := func() {
		auths = auths[:0]
		for i, p := range assign.Partitions {
			a := core.NewAuthority(assign.Primary[i], p, core.StrategyCover)
			a.RegionIndex = i
			a.SetCacheTimeouts(r.p.cacheIdle, 0)
			auths = append(auths, a)
		}
	}
	handleNs := r.timed("core.Authority.HandleMiss", len(misses), newAuths, func() {
		coverRules = 0
		record := installs == nil
		for _, m := range misses {
			res := auths[m.part].HandleMiss(m.key)
			coverRules += len(res.CacheMods)
			if record && len(res.CacheMods) > 0 {
				installs = append(installs, &proto.CacheInstall{Rules: res.CacheMods})
			}
		}
	})
	set("core.handle_miss_us", handleNs/1e3, "us")
	set("core.cover_rules_per_miss", float64(coverRules)/float64(max(len(misses), 1)), "count")

	// flowspace: CoverFor directly, bypassing the authority's miss memo.
	coverNs := r.timed("flowspace.CoverFor", len(misses), nil, func() {
		for _, m := range misses {
			p := &assign.Partitions[m.part]
			flowspace.CoverFor(p.Rules, m.hit, p.Region, m.key)
		}
	})
	set("flowspace.cover_for_us", coverNs/1e3, "us")

	// proto: the CacheInstall messages those misses produced.
	var buf []byte
	frames := make([][]byte, 0, len(installs))
	bytes := 0
	encNs := r.timed("proto.Encode", len(installs), nil, func() {
		for _, m := range installs {
			buf = proto.Encode(buf[:0], m)
		}
	})
	for _, m := range installs {
		f := proto.Encode(nil, m)
		bytes += len(f)
		frames = append(frames, f)
	}
	var decErr error
	decNs := r.timed("proto.DecodeFrame", len(frames), nil, func() {
		for _, f := range frames {
			if _, _, err := proto.DecodeFrame(f); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return fmt.Errorf("replay decode: %w", decErr)
	}
	set("proto.encode_ns_per_msg", encNs, "ns")
	set("proto.decode_ns_per_msg", decNs, "ns")
	set("proto.bytes_per_msg", float64(bytes)/float64(max(len(installs), 1)), "B")

	insertNs, lookupNs := r.tcamChurn(installs)
	set("tcam.insert_ns", insertNs, "ns")
	set("tcam.lookup_churn_ns", lookupNs, "ns")

	classifyNs, sws := r.classify()
	set("switchsim.classify_ns_per_pkt", classifyNs, "ns")
	set("cachepolicy.victim_ns", r.victim(sws, assign), "ns")
	return nil
}

// replayCapacity bounds the tcam replay table: the workload's cache
// capacity or TCAM budget, or about zipf-cached's cache size when unbounded.
func (r *replayer) replayCapacity() int {
	switch {
	case r.p.cacheCapacity > 0:
		return r.p.cacheCapacity
	case r.p.tcamBudget > 0:
		return r.p.tcamBudget
	default:
		return 2048
	}
}

// lookupsPerInsert interleaves lookups with the replayed inserts.
const lookupsPerInsert = 4

// tcamChurn replays the installed cache rules into a capacity-bound LRU
// table with lookups of the detoured keys interleaved, timing the inserts
// and the lookups apart. It returns ns per insert and ns per lookup.
func (r *replayer) tcamChurn(installs []*proto.CacheInstall) (float64, float64) {
	var rules []proto.FlowMod
	for _, m := range installs {
		rules = append(rules, m.Rules...)
	}
	if len(rules) == 0 || len(r.detours) == 0 {
		return 0, 0
	}
	var insertNs, lookupNs int64
	inserts, lookups := 0, 0
	for inserts == 0 || insertNs+lookupNs < int64(replayBudget) {
		t := tcam.New("cache", r.replayCapacity(), tcam.EvictLRU)
		r.pass++
		id, start := r.tr.open()
		k := 0
		for i, mod := range rules {
			now := float64(i) * 1e-4
			t0 := time.Now()
			_ = t.Insert(now, mod.Rule, mod.Idle, mod.Hard) // LRU always finds a victim
			t1 := time.Now()
			for j := 0; j < lookupsPerInsert; j++ {
				t.Lookup(now, r.detours[k], pktSize)
				k = (k + 1) % len(r.detours)
			}
			insertNs += int64(t1.Sub(t0))
			lookupNs += int64(time.Since(t1))
		}
		r.tr.close(id, "tcam.Insert+Lookup", 0, r.pass, start)
		inserts += len(rules)
		lookups += len(rules) * lookupsPerInsert
	}
	return float64(insertNs) / float64(inserts), float64(lookupNs) / float64(lookups)
}

// classify loads each switch's end-of-window tables into a fresh switchsim
// switch and runs the sampled packets through ClassifyBurst in bursts.
func (r *replayer) classify() (float64, map[uint32]*switchsim.Switch) {
	sws := map[uint32]*switchsim.Switch{}
	for id, t := range r.tables {
		sw := switchsim.New(id, switchsim.Config{})
		for i, table := range []proto.Table{proto.TablePartition, proto.TableAuthority, proto.TableCache} {
			for _, rule := range t[i] {
				_ = sw.Table(table).Insert(0, rule, 0, 0) // unbounded table: never full
			}
		}
		sws[id] = sw
	}
	byIngress := map[uint32][]flowspace.Key{}
	for _, p := range r.sample {
		byIngress[p.Ingress] = append(byIngress[p.Ingress], p.Key)
	}
	burst := 64
	sizes := make([]int, burst)
	for i := range sizes {
		sizes[i] = pktSize
	}
	out := make([]switchsim.Result, burst)
	ns := r.timed("switchsim.ClassifyBurst", len(r.sample), nil, func() {
		for id, keys := range byIngress {
			sw := sws[id]
			for i := 0; i < len(keys); i += burst {
				j := min(i+burst, len(keys))
				sw.ClassifyBurst(1, keys[i:j], sizes[:j-i], out[:j-i])
			}
		}
	})
	return ns, sws
}

// victim prices cachepolicy's scorer on each switch's end-of-window cache
// entries (their counters as the classify replay left them), returning ns
// per Victim call.
func (r *replayer) victim(sws map[uint32]*switchsim.Switch, assign core.Assignment) float64 {
	pol := cachepolicy.New(cachepolicy.Config{})
	var lists [][]cachepolicy.Candidate
	ids := make([]uint32, 0, len(sws))
	for id := range sws {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		var cands []cachepolicy.Candidate
		for _, e := range sws[id].Table(proto.TableCache).Entries() {
			region := -1
			for i, p := range assign.Partitions {
				if p.Region.Overlaps(e.Rule.Match) {
					region = i
					break
				}
			}
			cands = append(cands, cachepolicy.Candidate{
				ID: e.Rule.ID, Region: region, Packets: e.Packets,
				LastHit: e.LastHit(), Installed: e.Installed(),
			})
		}
		if len(cands) > 1 {
			lists = append(lists, cands)
		}
	}
	return r.timed("cachepolicy.Victim", len(lists), nil, func() {
		for _, c := range lists {
			pol.Victim(1, c)
		}
	})
}
