package tcam

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/workload"
)

// forceCompile makes the next charge on tb's snapshot compile it, through
// the same splice a reader's lookups would trigger.
func forceCompile(tb *Table) {
	s := tb.snap.Load()
	s.tree.debt.Store(1 << 40)
	tb.charge(s, 1)
}

// fill installs rules into a fresh unbounded table.
func fill(t testing.TB, rules []flowspace.Rule) *Table {
	t.Helper()
	tb := New("compiled", 0, EvictNone)
	for _, r := range rules {
		if err := tb.Insert(0, r, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// probeKeys returns keys inside random rules of rs (hits, often on
// overlaps) and uniform keys (mostly misses).
func probeKeys(rng *rand.Rand, rs []flowspace.Rule, n int) []flowspace.Key {
	keys := make([]flowspace.Key, 0, n)
	for len(keys) < n {
		var bits [flowspace.NumFields]uint64
		for f := range bits {
			bits[f] = rng.Uint64()
		}
		if len(rs) > 0 && rng.Intn(4) != 0 {
			keys = append(keys, rs[rng.Intn(len(rs))].Match.RandomKeyIn(bits))
		} else {
			keys = append(keys, flowspace.MatchAll().RandomKeyIn(bits))
		}
	}
	return keys
}

// checkAgainstEval holds every lookup path of tb to flowspace.EvalTable
// over want.
func checkAgainstEval(t *testing.T, tb *Table, want []flowspace.Rule, keys []flowspace.Key) {
	t.Helper()
	v := tb.AcquireView()
	defer v.Release()
	for i := range keys {
		k := keys[i]
		ref, refOK := flowspace.EvalTable(want, k)
		peek, peekOK := tb.Peek(k)
		view, viewOK := v.Lookup(0, &k, 64)
		got, gotOK := tb.Lookup(0, k, 64)
		for _, c := range []struct {
			name string
			r    *flowspace.Rule
			ok   bool
		}{{"Peek", peek, peekOK}, {"View.Lookup", view, viewOK}, {"Lookup", got, gotOK}} {
			if c.ok != refOK || (refOK && *c.r != ref) {
				t.Fatalf("%s(%v) = %v/%v, EvalTable = %v/%v", c.name, k, c.r, c.ok, ref, refOK)
			}
		}
	}
}

// randomTable draws n rules with overlapping wildcards over a few fields,
// priorities from a small range (so equal-priority ties are common) and
// IDs out of order.
func randomTable(rng *rand.Rand, n int) []flowspace.Rule {
	rs := make([]flowspace.Rule, 0, n)
	for _, id := range rng.Perm(n) {
		m := flowspace.MatchAll()
		if rng.Intn(2) == 0 {
			m = m.WithPrefix(flowspace.FIPSrc, rng.Uint64(), uint(rng.Intn(33)))
		}
		if rng.Intn(2) == 0 {
			m = m.WithPrefix(flowspace.FIPDst, rng.Uint64(), uint(rng.Intn(33)))
		}
		if rng.Intn(3) == 0 {
			m = m.WithExact(flowspace.FIPProto, uint64(6+11*rng.Intn(2)))
		}
		if rng.Intn(3) == 0 {
			// An arbitrary ternary pattern, like a subtraction piece.
			fd := flowspace.Field{Mask: rng.Uint64() & 0xFFFF}
			fd.Value = rng.Uint64() & fd.Mask
			m = m.With(flowspace.FTPDst, fd)
		}
		rs = append(rs, flowspace.Rule{
			ID: uint64(id + 1), Priority: int32(rng.Intn(4)), Match: m,
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(id)},
		})
	}
	return rs
}

func TestCompiledLookupMatchesEvalTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tables := map[string][]flowspace.Rule{
		"empty":  nil,
		"single": randomTable(rng, 1),
		"leaf":   randomTable(rng, leafSize),
		"random": randomTable(rng, 400),
	}
	for seed := int64(1); seed <= 3; seed++ {
		tables[fmt.Sprintf("classbench-%d", seed)] = workload.ClassBenchLike(workload.ACLConfig{
			Rules: 500, MaxDepth: 6, PortRangeFrac: 0.3, DropFrac: 0.2,
			Egresses: []uint32{1, 2, 3}, Seed: seed,
		})
	}
	for name, rules := range tables {
		t.Run(name, func(t *testing.T) {
			tb := fill(t, rules)
			keys := probeKeys(rng, rules, 2000)
			checkAgainstEval(t, tb, rules, keys) // uncut tree plus additions
			forceCompile(tb)
			if s := tb.snap.Load(); !s.tree.cut || len(s.adds) != 0 || s.n != len(rules) {
				t.Fatalf("after compile: cut=%v adds=%d n=%d", s.tree.cut, len(s.adds), s.n)
			}
			checkAgainstEval(t, tb, rules, keys)
		})
	}
}

// TestCompiledTreeWithDelta checks the mixed state: a compiled tree with
// dead entries, plus additions (some replacing tree entries in place).
func TestCompiledTreeWithDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rules := workload.ClassBenchLike(workload.ACLConfig{
		Rules: 300, MaxDepth: 5, PortRangeFrac: 0.3, DropFrac: 0.2,
		Egresses: []uint32{1, 2}, Seed: 5,
	})
	tb := fill(t, rules[:200])
	forceCompile(tb)
	for _, r := range rules[200:] {
		if err := tb.Insert(0, r, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		tb.Delete(rules[rng.Intn(len(rules))].ID)
	}
	for i := 0; i < 20; i++ {
		r := rules[rng.Intn(len(rules))]
		r.Priority = int32(rng.Intn(100))
		r.Action.Arg = 99
		if err := tb.Insert(0, r, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := tb.snap.Load(); !s.tree.cut || len(s.adds) == 0 {
		t.Fatalf("want a compiled tree plus additions, got cut=%v adds=%d", s.tree.cut, len(s.adds))
	}
	live := tb.Rules()
	keys := probeKeys(rng, rules, 3000)
	checkAgainstEval(t, tb, live, keys)
	forceCompile(tb)
	checkAgainstEval(t, tb, live, keys)
}

// TestLookupsPayForCompiling: installs alone never compile a table;
// lookups do, once their scanning has paid for it.
func TestLookupsPayForCompiling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rules := coverTable(300, 3)
	tb := fill(t, rules)
	if tb.snap.Load().tree.cut {
		t.Fatal("inserts compiled the table")
	}
	keys := probeKeys(rng, rules, 64)
	for i := 0; i < 100000 && !tb.snap.Load().tree.cut; i++ {
		tb.Lookup(0, keys[i%len(keys)], 64)
	}
	s := tb.snap.Load()
	if !s.tree.cut {
		t.Fatal("lookups never compiled the table")
	}
	scanned := 0
	for i := range keys {
		scanned += len(s.tree.leaf(&keys[i]))
	}
	if avg := scanned / len(keys); avg > 2*leafSize {
		t.Fatalf("compiled leaves average %d of %d rules", avg, len(rules))
	}
}

// TestAdditionsStayBounded: a table that is written but never read folds
// its additions instead of growing them without bound.
func TestAdditionsStayBounded(t *testing.T) {
	tb := New("churn", 16, EvictLRU)
	for i := 0; i < 10000; i++ {
		if err := tb.Insert(float64(i), rule(uint64(i+1), 1, uint64(i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := tb.snap.Load()
	if len(s.adds) > len(s.tree.entries)+foldSlack || len(s.tree.entries) > 16+foldSlack+1 {
		t.Fatalf("additions %d over a %d-entry tree", len(s.adds), len(s.tree.entries))
	}
}

func BenchmarkCompile(b *testing.B) {
	for _, n := range []int{64, 300, 4096} {
		rng := rand.New(rand.NewSource(1))
		tb := fill(b, randomTable(rng, n))
		s := tb.snap.Load()
		live := s.live()
		b.Run(fmt.Sprintf("random-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compileTree(live)
			}
		})
	}
}

// coverTable is a cover-cache-shaped rule set: the cover rules an
// authority switch synthesizes (flowspace.CoverFor) for keys drawn inside
// a ClassBench-like policy's rules, deduplicated, at the hit rule's
// priority.
func coverTable(n int, seed int64) []flowspace.Rule {
	policy := workload.ClassBenchLike(workload.ACLConfig{
		Rules: max(256, n/4), MaxDepth: 4, PortRangeFrac: 0.1, DropFrac: 0.1,
		Egresses: []uint32{1, 2, 3, 4}, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed))
	seen := map[flowspace.Match]bool{}
	var out []flowspace.Rule
	for _, k := range probeKeys(rng, policy, 50*n) {
		hit, ok := flowspace.EvalTable(policy, k)
		if !ok {
			continue
		}
		i := 0
		for policy[i].ID != hit.ID {
			i++
		}
		cover, ok := flowspace.CoverFor(policy, i, flowspace.MatchAll(), k)
		if !ok || seen[cover] {
			continue
		}
		seen[cover] = true
		out = append(out, flowspace.Rule{
			ID: uint64(len(out) + 1), Priority: hit.Priority, Match: cover, Action: hit.Action,
		})
		if len(out) == n {
			break
		}
	}
	return out
}

func BenchmarkCompileCovers(b *testing.B) {
	for _, n := range []int{300, 1000, 10000} {
		rules := coverTable(n, 1)
		tb := fill(b, rules)
		s := tb.snap.Load()
		live := s.live()
		b.Run(fmt.Sprintf("covers-%d", len(rules)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compileTree(live)
			}
		})
	}
}

// TestLookupsDuringChurnSeeBeforeOrAfter runs lookups — scalar and
// per-burst views — on several goroutines while a writer churns the table
// with Insert, Delete, Advance and SetCapacity, and the readers' scan
// debt recompiles it underneath them. Afterwards every result is held to
// flowspace.EvalTable on the table states the writer went through: a
// lookup that overlapped mutations a..b must agree with the state before
// mutation a or after one of them, and all of one burst's results must
// agree with one state. Run under -race this also covers the lock-free
// read path against the writer and the compile splice.
func TestLookupsDuringChurnSeeBeforeOrAfter(t *testing.T) {
	const (
		mutations = 2000
		readers   = 3
		burst     = 8
		maxObs    = 20000
	)
	pool := coverTable(120, 2)
	tb := New("churn", 0, EvictLRU)
	states := make([][]flowspace.Rule, mutations+1)
	var done atomic.Int64
	var sawCut atomic.Bool

	type obs struct {
		a, b int64
		keys []flowspace.Key
		ids  []uint64 // 0: miss
	}
	results := make([][]obs, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			keys := probeKeys(rng, pool, 1024)
			for i := 0; done.Load() < mutations; i++ {
				a := done.Load()
				o := obs{a: a}
				if i%2 == 0 {
					k := keys[i%len(keys)]
					got, ok := tb.Lookup(float64(a), k, 64)
					o.keys = append(o.keys, k)
					o.ids = append(o.ids, idOf(got, ok))
				} else {
					v := tb.AcquireView()
					for j := 0; j < burst; j++ {
						k := keys[(i+j)%len(keys)]
						got, ok := v.Lookup(float64(a), &k, 64)
						o.keys = append(o.keys, k)
						o.ids = append(o.ids, idOf(got, ok))
					}
					v.Release()
				}
				o.b = done.Load()
				if tb.snap.Load().tree.cut {
					sawCut.Store(true)
				}
				if len(results[r]) < maxObs {
					results[r] = append(results[r], o)
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < mutations; i++ {
		now := float64(i)
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			hard := 0.0
			if rng.Intn(2) == 0 {
				hard = float64(5 + rng.Intn(50))
			}
			if err := tb.Insert(now, pool[rng.Intn(len(pool))], 0, hard); err != nil {
				t.Fatal(err)
			}
		case 4, 5:
			tb.Delete(pool[rng.Intn(len(pool))].ID)
		case 6:
			tb.Advance(now)
		case 7:
			tb.SetCapacity(now, 20+rng.Intn(80))
		}
		states[i+1] = tb.Rules()
		done.Store(int64(i + 1))
	}
	wg.Wait()
	if !sawCut.Load() {
		t.Error("readers never compiled the table")
	}
	checked := 0
	for _, rs := range results {
	next:
		for _, o := range rs {
			for g := o.a; g <= min(o.b+1, mutations); g++ {
				agrees := true
				for j, k := range o.keys {
					want, ok := flowspace.EvalTable(states[g], k)
					if idOf(&want, ok) != o.ids[j] {
						agrees = false
						break
					}
				}
				if agrees {
					checked++
					continue next
				}
			}
			t.Fatalf("lookups %v over mutations %d..%d returned %v: no table state agrees",
				o.keys, o.a, o.b, o.ids)
		}
	}
	if checked == 0 {
		t.Fatal("no lookup overlapped the churn")
	}
}

func idOf(r *flowspace.Rule, ok bool) uint64 {
	if !ok {
		return 0
	}
	return r.ID
}

// FuzzCompiledLookup holds compiled lookups to flowspace.EvalTable on
// fuzzed tables: each rule is 7 bytes (priority, then value and mask
// bytes over the top byte of ip_src and ip_dst and the low byte of
// tp_dst), and the bytes after the rules are keys, 3 bytes each.
func FuzzCompiledLookup(f *testing.F) {
	f.Add([]byte{3, 1, 0x0A, 0xFF, 0, 0, 80, 0xFF, 1, 0x0A, 0xF0, 0xC0, 0xC0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0A, 0xC0, 80})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 64
		data = data[1:]
		top := func(v, m byte, shift uint) flowspace.Field {
			return flowspace.Field{Value: uint64(v&m) << shift, Mask: uint64(m) << shift}
		}
		var rules []flowspace.Rule
		for i := 0; i < n && len(data) >= 7; i++ {
			b := data[:7]
			data = data[7:]
			m := flowspace.MatchAll().
				With(flowspace.FIPSrc, top(b[1], b[2], 24)).
				With(flowspace.FIPDst, top(b[3], b[4], 24)).
				With(flowspace.FTPDst, top(b[5], b[6], 0))
			rules = append(rules, flowspace.Rule{
				ID: uint64(i + 1), Priority: int32(b[0] % 4), Match: m,
				Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(i)},
			})
		}
		var keys []flowspace.Key
		for ; len(data) >= 3; data = data[3:] {
			var k flowspace.Key
			k[flowspace.FIPSrc] = uint64(data[0]) << 24
			k[flowspace.FIPDst] = uint64(data[1]) << 24
			k[flowspace.FTPDst] = uint64(data[2])
			keys = append(keys, k)
		}
		for _, r := range rules {
			keys = append(keys, r.Match.RandomKeyIn([flowspace.NumFields]uint64{}))
		}
		tb := fill(t, rules)
		forceCompile(tb)
		checkAgainstEval(t, tb, rules, keys)
	})
}
