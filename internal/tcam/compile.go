package tcam

import (
	"math/bits"
	"sync/atomic"

	"difane/internal/flowspace"
)

// The compiled classifier: a HiCuts-style decision tree over key bits.
// Each interior node cuts the flow space on up to maxCuts key bits at once
// (a 2^cuts-way fan-out); a rule lands in every child its ternary match
// can reach — a wildcard bit under a cut replicates it into both halves —
// and every node keeps its rules in TCAM order, so a lookup walks one
// root-to-leaf path and returns the leaf's first matching rule. Cuts are
// single bits rather than HiCuts' equal-width field intervals because
// cache cover rules carve the space along arbitrary bit masks, not only
// along prefixes and ranges. A tree lives in three flat slices (nodes,
// child indices, leaf slots), so compiling allocates a handful of times
// and a lookup walks contiguous memory.

const (
	// maxCuts bounds the bits one node cuts on: up to a 16-way fan-out.
	maxCuts = 4
	// candBits is how many split bits per field a cut considers.
	candBits = 2
	// leafSize is the rule count at which a node stops cutting.
	leafSize = 16
	// spaceFactor bounds replication: a compile stops cutting once its
	// cuts have added spaceFactor rule slots per input rule.
	spaceFactor = 8
	// compileWeight is the cost of compiling one rule, in scanned rule
	// slots (match tests). A snapshot recompiles once the slots its
	// lookups scanned beyond the tree reach compileWeight × its size, so
	// compiling never costs more than the scanning it replaces.
	compileWeight = 256
)

// cut selects one key bit; a node gathers its cuts' bits MSB-first into
// the child index.
type cut struct{ field, shift uint8 }

// cutNode is one node of a compiled tree: an interior node (ncuts > 0)
// whose 1<<ncuts children's node indices start at kids in cutTree.kids,
// or a leaf holding cutTree.slots[lo:hi], candidates in TCAM order.
type cutNode struct {
	cuts   [maxCuts]cut
	ncuts  uint8
	kids   int32
	lo, hi int32
}

// cutTree is the classifier one or more snapshots share: the nodes (the
// root first), the entries it was built over (in TCAM order), and the
// lookup work spent beyond it.
type cutTree struct {
	nodes   []cutNode
	kids    []int32
	slots   []*entry
	entries []*entry
	// cut reports whether the cutter built the tree. An uncut tree is a
	// single leaf over every entry — what a table starts with and what a
	// writer publishes when its additions outgrow the tree — and every
	// slot a lookup scans in it counts as debt.
	cut bool
	// debt is the rule slots lookups scanned that a recompile would have
	// spared them: the additions since the tree was built, dead entries
	// skipped, and uncut leaves. compiling is held by the one reader that
	// rebuilds the tree once debt pays for it.
	debt      atomic.Int64
	compiling atomic.Bool
}

// leaf walks k down to its leaf's candidates.
func (t *cutTree) leaf(k *flowspace.Key) []*entry {
	n := &t.nodes[0]
	for n.ncuts > 0 {
		i := int32(0)
		for _, c := range n.cuts[:n.ncuts] {
			i = i<<1 | int32(k[c.field]>>c.shift&1)
		}
		n = &t.nodes[t.kids[n.kids+i]]
	}
	return t.slots[n.lo:n.hi]
}

// flatTree is the uncut tree over entries (which it keeps).
func flatTree(entries []*entry) *cutTree {
	return &cutTree{
		nodes:   []cutNode{{hi: int32(len(entries))}},
		slots:   entries,
		entries: entries,
	}
}

// compileTree cuts entries (in TCAM order) into a tree.
func compileTree(entries []*entry) *cutTree {
	b := builder{
		t:      &cutTree{entries: entries, cut: true},
		budget: spaceFactor * len(entries),
		tmp:    make([]*entry, 0, 4*len(entries)),
		empty:  -1,
	}
	b.build(entries)
	return b.t
}

// builder carries one compile: the tree being filled, the rule slots its
// cuts may still add, the buckets' backing store, and the index of the
// shared empty leaf (-1 until one is needed).
type builder struct {
	t      *cutTree
	budget int
	tmp    []*entry
	empty  int32
}

// build cuts rules (in TCAM order) into a subtree and returns its root's
// node index. A node's cuts are chosen greedily, one bit at a time (see
// bestCut); cutting stops at leafSize rules or when the replication
// budget runs out.
func (b *builder) build(rules []*entry) int32 {
	id := int32(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, cutNode{})
	var n cutNode
	// Each cut splits the buckets of one array into the other.
	var bucketsOf [2][1 << maxCuts][]*entry
	buckets := append(bucketsOf[0][:0], rules)
	if len(rules) > leafSize && b.budget > 0 {
		for n.ncuts < maxCuts {
			c, ok := bestCut(buckets)
			if !ok {
				break
			}
			n.cuts[n.ncuts] = c
			n.ncuts++
			buckets = b.split(bucketsOf[n.ncuts&1][:0], buckets, c)
		}
	}
	if n.ncuts == 0 {
		n.lo = int32(len(b.t.slots))
		b.t.slots = append(b.t.slots, rules...)
		n.hi = int32(len(b.t.slots))
		b.t.nodes[id] = n
		return id
	}
	slots := 0
	for _, bk := range buckets {
		slots += len(bk)
	}
	b.budget -= slots - len(rules)
	n.kids = int32(len(b.t.kids))
	b.t.kids = append(b.t.kids, make([]int32, len(buckets))...)
	b.t.nodes[id] = n
	end := len(b.tmp)
	for i, bk := range buckets {
		if len(bk) > 0 {
			b.t.kids[n.kids+int32(i)] = b.build(bk)
			b.tmp = b.tmp[:end] // the child's buckets are dead
			continue
		}
		if b.empty < 0 {
			b.empty = int32(len(b.t.nodes))
			b.t.nodes = append(b.t.nodes, cutNode{})
		}
		b.t.kids[n.kids+int32(i)] = b.empty
	}
	return id
}

// bestCut picks the key bit whose split most shortens the expected scan,
// reporting false when none shortens it by an eighth. The expected scan
// is Σ size² / Σ size over the buckets: the mean bucket size seen by a key
// that lands in a bucket in proportion to the rules it holds — keys follow
// the rules, so a bit that every rule fixes to the same value does not
// help, however much empty space its other half holds. The candidates are
// split bits, which some rule in a bucket fixes to 0 and another to 1;
// per field, only the candBits most significant, where prefixes and
// expanded ranges diverge first.
func bestCut(buckets [][]*entry) (cut, bool) {
	var splits [flowspace.NumFields]uint64
	sq, slots := 0, 0
	for _, bk := range buckets {
		sq += len(bk) * len(bk)
		slots += len(bk)
		var ones, zeros [flowspace.NumFields]uint64
		for _, e := range bk {
			for f := range e.rule.Match.Fields {
				fd := &e.rule.Match.Fields[f]
				ones[f] |= fd.Mask & fd.Value
				zeros[f] |= fd.Mask &^ fd.Value
			}
		}
		for f := range splits {
			splits[f] |= ones[f] & zeros[f]
		}
	}
	best, bestSq, bestSlots := cut{}, 7*sq, 8*slots
	found := false
	for f, sp := range splits {
		for i := 0; i < candBits && sp != 0; i++ {
			c := cut{field: uint8(f), shift: uint8(63 - bits.LeadingZeros64(sp))}
			sp &^= 1 << c.shift
			cutSq, cutSlots := c.cost(buckets)
			if cutSq*bestSlots < bestSq*cutSlots {
				best, bestSq, bestSlots, found = c, cutSq, cutSlots, true
			}
		}
	}
	return best, found
}

// cost returns Σ size² and Σ size over the buckets c would split the
// given ones into.
func (c cut) cost(buckets [][]*entry) (sq, slots int) {
	bit := uint64(1) << c.shift
	for _, bk := range buckets {
		zeros, ones := 0, 0
		for _, e := range bk {
			fd := &e.rule.Match.Fields[c.field]
			switch {
			case fd.Mask&bit == 0:
			case fd.Value&bit == 0:
				zeros++
			default:
				ones++
			}
		}
		m := len(bk)
		sq += (m-ones)*(m-ones) + (m-zeros)*(m-zeros)
		slots += 2*m - ones - zeros
	}
	return sq, slots
}

// split halves every bucket on c into dst, keeping TCAM order: bucket i
// becomes buckets 2i (bit 0) and 2i+1 (bit 1), and a rule wildcarding the
// bit goes to both. The halves are stacked on b.tmp, which build pops
// once a child is done. A bucket keeps its old backing array if tmp
// grows; that is fine, as buckets are only read, and pops never reach
// below a live bucket.
func (b *builder) split(dst, buckets [][]*entry, c cut) [][]*entry {
	bit := uint64(1) << c.shift
	for _, bk := range buckets {
		for _, want := range [2]uint64{0, bit} {
			start := len(b.tmp)
			for _, e := range bk {
				if fd := &e.rule.Match.Fields[c.field]; fd.Mask&bit == 0 || fd.Value&bit == want {
					b.tmp = append(b.tmp, e)
				}
			}
			dst = append(dst, b.tmp[start:len(b.tmp):len(b.tmp)])
		}
	}
	return dst
}
