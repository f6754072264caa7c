// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (see DESIGN.md §3 for the index). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment at full scale and
// reports its headline numbers as custom metrics; `go run ./cmd/difane-bench`
// prints the full tables.
package difane_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"difane"
	"difane/experiments"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/tcam"
)

// benchOpts runs the full-size workloads.
func benchOpts() experiments.Options { return experiments.Bench() }

func BenchmarkTableNetworks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableNetworks(benchOpts())
		if len(r.Rows) != 4 {
			b.Fatal("bad row count")
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigFirstPacketDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigFirstPacketDelay(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.DIFANE.Percentile(99)*1e3, "difane-p99-ms")
			b.ReportMetric(r.NOX.Percentile(99)*1e3, "nox-p99-ms")
		}
	}
}

func BenchmarkFigThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigThroughput(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			last := r.Points[len(r.Points)-1]
			b.ReportMetric(last.DIFANE, "difane-setups/s")
			b.ReportMetric(last.NOX, "nox-setups/s")
		}
	}
}

func BenchmarkFigAuthorityScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigAuthorityScaling(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.Points[len(r.Points)-1].Setups, "setups/s-at-kmax")
		}
	}
}

func BenchmarkFigPartitionTCAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigPartitionTCAM(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigSplitOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigSplitOverhead(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigCacheMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigCacheMiss(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigStretch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigStretch(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.Dists[0].Mean(), "stretch-k1")
			b.ReportMetric(r.Dists[len(r.Dists)-1].Mean(), "stretch-kmax")
		}
	}
}

func BenchmarkFigFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigFailover(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(float64(r.WithBackupLost), "lost-with-backup")
			b.ReportMetric(float64(r.WithoutBackupLost), "lost-without-backup")
		}
	}
}

func BenchmarkFigPolicyChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigPolicyChange(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigCacheTimeout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigCacheTimeout(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigControlLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigControlLoad(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(float64(r.NOXRuntime)/float64(r.Flows), "nox-msgs/flow")
			b.ReportMetric(float64(r.DIFANERuntime)/float64(r.Flows), "difane-msgs/flow")
		}
	}
}

func BenchmarkAblationEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationEviction(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkFigLinkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigLinkLoad(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(float64(r.Points[0].MaxLoad), "max-link-k1")
			b.ReportMetric(float64(r.Points[len(r.Points)-1].MaxLoad), "max-link-kmax")
		}
	}
}

func BenchmarkAblationRebalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationRebalance(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(r.LoadBefore, "max-share-before")
			b.ReportMetric(r.LoadAfter, "max-share-after")
		}
	}
}

func BenchmarkAblationCacheStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationCacheStrategy(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

func BenchmarkAblationPartitioner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPartitioner(benchOpts())
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// --- W1: wire-path microbenchmarks -------------------------------------------

// BenchmarkWirePath measures end-to-end wire-mode flow setups: inject a
// new flow, it detours via the authority, and is delivered.
func BenchmarkWirePath(b *testing.B) {
	policy := []difane.Rule{
		{ID: 1, Priority: 1, Match: difane.MatchAll(),
			Action: difane.Action{Kind: difane.ActForward, Arg: 3}},
	}
	c, err := difane.NewCluster(difane.ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3},
		Authorities: []uint32{2},
		Policy:      policy,
		Strategy:    difane.StrategyExact, // every flow takes the full path
		QueueDepth:  4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	delivered := 0
	for i := 0; delivered < b.N; i++ {
		h := packet.Header{IPSrc: uint32(i + 1), TPDst: 80}
		for !c.Inject(0, h, 100) {
			time.Sleep(time.Microsecond)
		}
		select {
		case <-c.Deliveries:
			delivered++
		case <-time.After(5 * time.Second):
			b.Fatal("delivery timeout")
		}
	}
}

// BenchmarkWirePathTCP is BenchmarkWirePath with the control plane over
// real loopback TCP sockets.
func BenchmarkWirePathTCP(b *testing.B) {
	policy := []difane.Rule{
		{ID: 1, Priority: 1, Match: difane.MatchAll(),
			Action: difane.Action{Kind: difane.ActForward, Arg: 3}},
	}
	c, err := difane.NewCluster(difane.ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3},
		Authorities: []uint32{2},
		Policy:      policy,
		Strategy:    difane.StrategyExact,
		QueueDepth:  4096,
		UseTCP:      true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	delivered := 0
	for i := 0; delivered < b.N; i++ {
		h := packet.Header{IPSrc: uint32(i + 1), TPDst: 80}
		for !c.Inject(0, h, 100) {
			time.Sleep(time.Microsecond)
		}
		select {
		case <-c.Deliveries:
			delivered++
		case <-time.After(5 * time.Second):
			b.Fatal("delivery timeout")
		}
	}
}

// --- W2: wire data-plane throughput benchmarks -------------------------------
//
// An 8-switch wire cluster driven through the public Deployment API only,
// so this file can be dropped unchanged into an older checkout to compare
// numbers across commits (EXPERIMENTS.md records the history). Injection
// and completion-waiting both go through the Deployment wrapper: Run()
// blocks on cheap atomics, so the wait harness adds no per-poll cost that
// scales with how much the run has already delivered.

// benchWireIDs lists the 8-switch cluster's switch IDs.
var benchWireIDs = []uint32{0, 1, 2, 3, 4, 5, 6, 7}

// benchWirePolicy spreads flows across all eight egresses — rule i forwards
// TPDst 1000+i to switch i — so aggregate throughput is not serialized on a
// single switch's data loop.
func benchWirePolicy() []difane.Rule {
	policy := make([]difane.Rule, 0, 8)
	for i := uint64(0); i < 8; i++ {
		policy = append(policy, difane.Rule{
			ID: i + 1, Priority: 10,
			Match:  difane.MatchAll().WithExact(difane.FTPDst, 1000+i),
			Action: difane.Action{Kind: difane.ActForward, Arg: uint32(i)},
		})
	}
	return policy
}

// benchWireDeploy builds the benchmarks' shared cluster shape.
func benchWireDeploy(b *testing.B, cacheCap int) *difane.WireDeployment {
	b.Helper()
	d, err := difane.NewWireDeployment(difane.ClusterConfig{
		Switches:      benchWireIDs,
		Authorities:   []uint32{2, 5},
		Policy:        benchWirePolicy(),
		Strategy:      difane.StrategyExact,
		CacheCapacity: cacheCap,
		QueueDepth:    4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchWireKey builds a flow key for the TPDst-keyed benchmark policy.
func benchWireKey(src uint32, dport uint16) difane.Key {
	var k difane.Key
	k[difane.FIPSrc] = uint64(src)
	k[difane.FTPDst] = uint64(dport)
	return k
}

// warmWireFlows pushes every (ingress, key) pair through the cluster and
// repeats until a full round triggers no new authority redirects: cache
// installs are asynchronous, so a detoured packet being delivered does not
// yet mean the ingress cache rule has landed.
func warmWireFlows(b *testing.B, d *difane.WireDeployment, at []uint32, ks []difane.Key) {
	b.Helper()
	for round := 0; round < 100; round++ {
		before := d.Measurements().Redirects
		for i := range ks {
			d.InjectPacket(0, at[i], ks[i], 100, 0)
		}
		d.Run(120)
		if d.Measurements().Redirects == before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.Fatal("ingress caches never warmed")
}

// BenchmarkWireThroughput measures aggregate warm-cache data-plane
// throughput on an 8-switch cluster: all eight ingresses inject
// concurrently, every packet is a cache hit tunneled to one of eight
// egresses, and an iteration is one packet terminally accounted.
func BenchmarkWireThroughput(b *testing.B) {
	d := benchWireDeploy(b, 0)
	defer d.Close()
	var at []uint32
	var ks []difane.Key
	for _, g := range benchWireIDs {
		for e := uint32(0); e < 8; e++ {
			at = append(at, g)
			ks = append(ks, benchWireKey(0x0A000000|g<<8|e, uint16(1000+e)))
		}
	}
	warmWireFlows(b, d, at, ks)
	b.ReportAllocs()
	b.ResetTimer()
	per := len(ks) / 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		share := b.N / 8
		if g < b.N%8 {
			share++
		}
		wg.Add(1)
		go func(g, share int) {
			defer wg.Done()
			batch := make([]difane.PacketIn, 0, 256)
			for i := 0; i < share; i++ {
				idx := g*per + i%per
				batch = append(batch, difane.PacketIn{
					Ingress: at[idx], Key: ks[idx], Size: 100, Seq: uint64(i),
				})
				if len(batch) == cap(batch) {
					d.InjectBatch(batch)
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				d.InjectBatch(batch)
			}
		}(g, share)
	}
	wg.Wait()
	d.Run(120)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkWireCacheHit measures one switch's hot path: a single warm flow
// injected back-to-back at ingress 0 and tunneled to egress 7, so the cost
// is classify + encapsulate + fabric handoff + deliver with no authority
// involvement.
func BenchmarkWireCacheHit(b *testing.B) {
	d := benchWireDeploy(b, 0)
	defer d.Close()
	k := benchWireKey(0x0A000001, 1007)
	warmWireFlows(b, d, []uint32{0}, []difane.Key{k})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.InjectPacket(0, 0, k, 100, uint64(i))
	}
	d.Run(120)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkWireMissStorm measures the full miss path under storm load:
// every packet is a brand-new flow (exact-match strategy, unique IPSrc),
// so each one redirects through an authority switch and triggers an async
// cache install. Caches are capacity-bounded so per-op cost stays
// independent of b.N.
func BenchmarkWireMissStorm(b *testing.B) {
	d := benchWireDeploy(b, 512)
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		share := b.N / 8
		if g < b.N%8 {
			share++
		}
		wg.Add(1)
		go func(g, share int) {
			defer wg.Done()
			batch := make([]difane.PacketIn, 0, 256)
			for i := 0; i < share; i++ {
				k := benchWireKey(uint32(g)<<24|uint32(i+1), uint16(1000+(g+i)%8))
				batch = append(batch, difane.PacketIn{
					Ingress: uint32(g), Key: k, Size: 100, Seq: uint64(i),
				})
				if len(batch) == cap(batch) {
					d.InjectBatch(batch)
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				d.InjectBatch(batch)
			}
		}(g, share)
	}
	wg.Wait()
	d.Run(120)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkProtoEncodeDecode measures control-message round trips.
func BenchmarkProtoEncodeDecode(b *testing.B) {
	m := &proto.FlowMod{
		Table: proto.TableCache, Op: proto.OpAdd,
		Rule: flowspace.Rule{
			ID: 7, Priority: 42,
			Match: flowspace.MatchAll().
				WithPrefix(flowspace.FIPSrc, 0x0A000000, 8).
				WithExact(flowspace.FTPDst, 80),
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 3},
		},
		Idle: 10, Hard: 60,
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = proto.Encode(buf[:0], m)
	}
	_ = buf
}

// BenchmarkPacketWire measures packet header encode+decode.
func BenchmarkPacketWire(b *testing.B) {
	p := packet.Packet{Header: packet.Header{
		EthSrc: 0x001122334455, EthDst: 0xAABBCCDDEEFF,
		EthType: packet.EthTypeIPv4, IPProto: packet.ProtoTCP,
		IPSrc: packet.IP4(10, 0, 0, 1), IPDst: packet.IP4(10, 0, 0, 2),
		TPSrc: 1234, TPDst: 80,
	}}
	p.Encapsulate(packet.EncapRedirect, 1, 2)
	var buf []byte
	var q packet.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendWire(buf[:0])
		if _, err := q.DecodeWire(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitioner measures partitioning a 10k-rule ACL.
func BenchmarkPartitioner(b *testing.B) {
	policy := difane.ClassBenchLike(difane.ACLConfig{
		Rules: 10000, MaxDepth: 8, PortRangeFrac: 0.25, DropFrac: 0.3,
		Egresses: []uint32{1, 2, 3, 4}, Seed: 9,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := difane.BuildPartitions(policy, difane.PartitionConfig{MaxRulesPerPartition: 512})
		if len(parts) == 0 {
			b.Fatal("no partitions")
		}
	}
}

// BenchmarkEvalTable measures the reference classifier: a linear
// highest-priority scan over a 1000-rule policy.
func BenchmarkEvalTable(b *testing.B) {
	policy := difane.ClassBenchLike(difane.ACLConfig{
		Rules: 1000, MaxDepth: 6, Egresses: []uint32{1}, Seed: 11,
	})
	var k difane.Key
	k[difane.FIPSrc] = 0x0A0B0C0D
	k[difane.FIPDst] = 0xC0A80101
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		difane.Evaluate(policy, k)
	}
}

// coverCache is an ingress cache's shape: the cover rules authority
// switches synthesize (flowspace.CoverFor) for keys inside a ClassBench-like
// policy's rules, deduplicated, at the hit rule's priority. It returns the
// policy too.
func coverCache(n int) (covers, policy []flowspace.Rule) {
	policy = difane.ClassBenchLike(difane.ACLConfig{
		Rules: max(256, n/4), MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: []uint32{1, 2, 3, 4}, Seed: 42,
	})
	rng := rand.New(rand.NewSource(1))
	seen := map[flowspace.Match]bool{}
	for tries := 0; len(covers) < n && tries < 50*n; tries++ {
		hit := rng.Intn(len(policy))
		k := policy[hit].Match.RandomKeyIn(randFill(rng))
		r, _ := flowspace.EvalTable(policy, k)
		for policy[hit].ID != r.ID {
			hit--
		}
		cover, ok := flowspace.CoverFor(policy, hit, flowspace.MatchAll(), k)
		if ok && !seen[cover] {
			seen[cover] = true
			covers = append(covers, flowspace.Rule{
				ID: uint64(len(covers) + 1), Priority: r.Priority, Match: cover, Action: r.Action,
			})
		}
	}
	return covers, policy
}

func randFill(rng *rand.Rand) (fill [flowspace.NumFields]uint64) {
	for f := range fill {
		fill[f] = rng.Uint64()
	}
	return fill
}

// cacheKeys returns n keys inside random covers (hits) and n uniform keys
// that no cover matches (misses).
func cacheKeys(covers []flowspace.Rule, n int) (hits, misses []flowspace.Key) {
	rng := rand.New(rand.NewSource(2))
	for len(hits) < n {
		hits = append(hits, covers[rng.Intn(len(covers))].Match.RandomKeyIn(randFill(rng)))
	}
	for len(misses) < n {
		k := flowspace.MatchAll().RandomKeyIn(randFill(rng))
		if _, ok := flowspace.EvalTable(covers, k); !ok {
			misses = append(misses, k)
		}
	}
	return hits, misses
}

// BenchmarkTCAMLookup measures one ingress-cache lookup through
// tcam.Table, hitting and missing, at three cache sizes. The table is
// warmed by lookups first, as traffic would.
func BenchmarkTCAMLookup(b *testing.B) {
	for _, n := range []int{300, 1000, 10000} {
		covers, _ := coverCache(n)
		hits, misses := cacheKeys(covers, 1024)
		tb := tcam.New("cache", 0, tcam.EvictNone)
		for _, r := range covers {
			if err := tb.Insert(0, r, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 100*n; i++ {
			tb.Lookup(0, hits[i%len(hits)], 64)
		}
		for _, c := range []struct {
			name string
			keys []flowspace.Key
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(fmt.Sprintf("%d/%s", n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tb.Lookup(0, c.keys[i%len(c.keys)], 64)
				}
			})
		}
	}
}

// BenchmarkClassifyBurst measures switchsim.ClassifyBurst on 64-packet
// bursts against a 300-cover cache over a 256-rule authority table: 90%
// of packets hit the cache, the rest fall through to the authority rules.
// It reports ns per packet.
func BenchmarkClassifyBurst(b *testing.B) {
	const burst = 64
	covers, policy := coverCache(300)
	sw := switchsim.New(1, switchsim.Config{})
	for table, rules := range map[proto.Table][]flowspace.Rule{
		proto.TableCache: covers, proto.TableAuthority: policy,
	} {
		for _, r := range rules {
			if err := sw.Table(table).Insert(0, r, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	hits, misses := cacheKeys(covers, 1024)
	keys := make([]flowspace.Key, 0, 4096)
	for i := 0; len(keys) < cap(keys); i++ {
		if i%10 == 9 {
			keys = append(keys, misses[i%len(misses)])
		} else {
			keys = append(keys, hits[i%len(hits)])
		}
	}
	sizes := make([]int, burst)
	for i := range sizes {
		sizes[i] = 64
	}
	out := make([]switchsim.Result, burst)
	run := func(i int) {
		j := i * burst % len(keys)
		sw.ClassifyBurst(0, keys[j:j+burst], sizes, out)
	}
	for i := 0; i < 1000; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/pkt")
}
