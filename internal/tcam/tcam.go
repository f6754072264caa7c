// Package tcam models a switch rule table with TCAM semantics: prioritized
// ternary rules, highest-priority-first lookup, per-rule packet/byte
// counters, idle and hard timeouts, and a capacity limit.
//
// Time is explicit (float64 seconds) rather than wall clock so the table is
// deterministic under the discrete-event simulator; the wire-mode prototype
// feeds it monotonic time converted to seconds.
//
// Concurrency: mutations (Insert, Delete, DeleteWhere, Advance,
// SetCapacity) serialize on an internal mutex; lookups (Lookup, View,
// Peek, Len) never take it. Each mutation bumps the table version and
// publishes, through an atomic pointer, an immutable snapshot: a compiled
// cut tree (compile.go) plus the entries installed since the tree was
// built. A removal is not copied anywhere — each entry records the
// versions that installed and removed it, and a snapshot at version v
// holds exactly the entries installed at or before v and not removed by
// then — so republishing costs O(1) amortized instead of a table copy,
// and a lookup observes either the complete old table or the complete new
// one, never a half-applied mutation. The publish is the linearization
// point.
//
// Compiling: a snapshot's lookups charge its tree with the rule slots they
// scan beyond it (the additions since the tree was built, dead entries,
// or the whole table while the tree is still an uncut single leaf). Once
// that debt reaches the cost of compiling the table, the reader that
// crosses it builds a new tree outside the mutex and splices it in with
// the additions it already covers dropped; meanwhile lookups keep using
// the old tree. Compile cost is thus paid by lookups, in proportion to
// the scanning it saves, never by installs. A writer whose additions
// outgrow the tree publishes an uncut tree over the live entries instead,
// which bounds the additions list and the memory dead entries pin.
//
// Handles: lookups return a *flowspace.Rule pointing into the installed
// entry. Installed rules are never modified — Insert replaces an entry by
// installing a new one — so a handle stays valid and unchanged for as
// long as the caller keeps it, even after the rule leaves the table; it
// then describes the rule as it was installed.
//
// Inspection (Entries, Rules, NextExpiry, Counters, String) copies the
// live table under the mutex.
package tcam

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"difane/internal/flowspace"
)

// ErrFull is returned by Insert when the table is at capacity and no
// eviction candidate exists.
var ErrFull = errors.New("tcam: table full")

// Entry is a point-in-time view of one installed rule plus its runtime
// state, as returned by Entries and passed to OnExpire and DeleteWhere
// predicates.
type Entry struct {
	Rule flowspace.Rule

	// Counters.
	Packets uint64
	Bytes   uint64

	// Timeouts, in seconds; zero disables. IdleTimeout expires the entry
	// when no packet has matched for that long; HardTimeout expires it that
	// long after installation regardless of traffic.
	IdleTimeout float64
	HardTimeout float64

	installed float64
	lastHit   float64
}

// Installed returns the entry's install time in table seconds.
func (e Entry) Installed() float64 { return e.installed }

// LastHit returns the entry's last-hit time (the install time when the
// entry has never matched a packet).
func (e Entry) LastHit() float64 { return e.lastHit }

// entry is the live representation: immutable rule and timeouts, atomic
// counters so lock-free lookups can update them concurrently.
type entry struct {
	rule flowspace.Rule

	idleTimeout float64
	hardTimeout float64
	installed   float64

	// added is the table version that installed the entry; removed is the
	// version that took it out, 0 while it is installed.
	added   uint64
	removed atomic.Uint64

	packets     atomic.Uint64
	bytes       atomic.Uint64
	lastHitBits atomic.Uint64 // math.Float64bits of the last-hit time
}

func (e *entry) lastHit() float64      { return math.Float64frombits(e.lastHitBits.Load()) }
func (e *entry) setLastHit(at float64) { e.lastHitBits.Store(math.Float64bits(at)) }

// snapshot converts the live entry to its exported point-in-time view.
func (e *entry) snapshot() Entry {
	return Entry{
		Rule:        e.rule,
		Packets:     e.packets.Load(),
		Bytes:       e.bytes.Load(),
		IdleTimeout: e.idleTimeout,
		HardTimeout: e.hardTimeout,
		installed:   e.installed,
		lastHit:     e.lastHit(),
	}
}

// expiresAt returns the earliest time the entry can expire, or +inf-ish.
func (e *entry) expiresAt() float64 {
	const never = 1e30
	t := never
	if e.idleTimeout > 0 && e.lastHit()+e.idleTimeout < t {
		t = e.lastHit() + e.idleTimeout
	}
	if e.hardTimeout > 0 && e.installed+e.hardTimeout < t {
		t = e.installed + e.hardTimeout
	}
	return t
}

// EvictionPolicy selects a victim when the table is full.
type EvictionPolicy int

const (
	// EvictNone rejects inserts into a full table with ErrFull.
	EvictNone EvictionPolicy = iota
	// EvictLRU removes the entry with the oldest last-hit time.
	EvictLRU
	// EvictLFU removes the entry with the fewest matched packets.
	EvictLFU
)

// VictimCandidate is one eviction candidate handed to a VictimFunc: a
// handle to the installed rule (read-only, like every handle) plus the
// runtime state a cost model scores with. Pinned entries are filtered out
// before the picker ever sees them.
type VictimCandidate struct {
	ID        uint64
	Rule      *flowspace.Rule
	Packets   uint64
	LastHit   float64
	Installed float64
}

// VictimFunc picks which candidate to evict when the table is over
// capacity, returning an index into cands or a negative value to decline
// (the table then falls back to its built-in policy ordering). It is
// called with the table mutex held, so implementations must not call
// back into the table, and cands is only valid during the call.
type VictimFunc func(now float64, cands []VictimCandidate) int

// Table is a TCAM-semantics rule table with a lock-free lookup path and
// mutex-serialized mutations (see the package comment for the model).
type Table struct {
	name     string
	capacity int // 0 = unlimited
	policy   EvictionPolicy

	// mu serializes mutations. entries (in TCAM order: highest priority
	// first), byID and version are owned by mu; snap is the immutable read
	// state lookups load.
	mu      sync.Mutex
	entries []*entry
	byID    map[uint64]*entry
	version uint64
	snap    atomic.Pointer[snapshot]
	snaps   []snapshot // unpublished slots, owned by mu

	// pins refcounts rule IDs protected from eviction (in-flight installs);
	// victimFn, when set, overrides the policy's victim ordering; cands and
	// candEntries are its reused scratch. All are owned by mu.
	pins        map[uint64]int
	victimFn    VictimFunc
	cands       []VictimCandidate
	candEntries []*entry

	// OnExpire, if non-nil, is invoked for each entry removed by Advance.
	// Set it before the table is shared across goroutines.
	OnExpire func(Entry)

	// OnInstall, if non-nil, is invoked after Insert commits a rule
	// (including replace-in-place). OnEvict is invoked for each entry a
	// capacity eviction removes. Both run outside the table's mutex, after
	// the mutation is visible, so they may call back into the table; like
	// OnExpire they must be set before the table is shared across
	// goroutines.
	OnInstall func(Entry)
	OnEvict   func(Entry)

	// Misses counts lookups that matched no entry.
	Misses atomic.Uint64
	// Hits counts lookups that matched an entry.
	Hits atomic.Uint64
	// Evictions counts capacity evictions.
	Evictions atomic.Uint64
}

// New returns an empty table. capacity 0 means unlimited.
func New(name string, capacity int, policy EvictionPolicy) *Table {
	t := &Table{
		name:     name,
		capacity: capacity,
		policy:   policy,
		byID:     make(map[uint64]*entry),
	}
	t.snap.Store(&snapshot{tree: flatTree(nil)})
	return t
}

// snapshot is one published read state: the table version it reflects, a
// tree over the entries live when the tree was built, and the entries
// installed since (adds, in install order, some possibly removed again).
type snapshot struct {
	version uint64
	tree    *cutTree
	adds    []*entry
	n       int // live entries
}

const (
	// foldSlack is how far a snapshot's additions may outgrow its tree
	// before a writer publishes an uncut tree over the live entries.
	foldSlack = 64
	// snapshotSlab is how many snapshots one allocation provides.
	snapshotSlab = 32
)

// holds reports whether e is installed in the snapshot's table state.
func (s *snapshot) holds(e *entry) bool {
	r := e.removed.Load()
	return r == 0 || r > s.version
}

// find returns the first entry in TCAM order matching k, or nil, plus the
// rule slots it scanned that a recompile would spare.
func (s *snapshot) find(k *flowspace.Key) (*entry, int) {
	var best *entry
	leaf := s.tree.leaf(k)
	scanned, dead := len(leaf), 0
	for i, e := range leaf {
		if e.rule.Match.Has(k) {
			if s.holds(e) {
				best, scanned = e, i+1
				break
			}
			dead++
		}
	}
	for _, e := range s.adds {
		if e.rule.Match.Has(k) && s.holds(e) && (best == nil || e.rule.Precedes(&best.rule)) {
			best = e
		}
	}
	if !s.tree.cut {
		return best, scanned + len(s.adds)
	}
	return best, dead + len(s.adds)
}

// live returns the entries the snapshot holds, in TCAM order: the tree's
// survivors merged with the surviving additions.
func (s *snapshot) live() []*entry {
	var adds []*entry
	for _, e := range s.adds {
		if s.holds(e) {
			adds = append(adds, e)
		}
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i].rule.Precedes(&adds[j].rule) })
	out := make([]*entry, 0, s.n)
	for _, e := range s.tree.entries {
		if !s.holds(e) {
			continue
		}
		for len(adds) > 0 && adds[0].rule.Precedes(&e.rule) {
			out = append(out, adds[0])
			adds = adds[1:]
		}
		out = append(out, e)
	}
	return append(out, adds...)
}

// publishLocked publishes the table state at t.version, appending add
// (when non-nil) to the additions. Appending reuses the additions' backing
// array: older snapshots only read a prefix of it, and only the newest
// snapshot's additions are ever appended to. Callers hold mu.
func (t *Table) publishLocked(add *entry) {
	cur := t.snap.Load()
	next := t.newSnapshotLocked()
	*next = snapshot{version: t.version, tree: cur.tree, adds: cur.adds, n: len(t.entries)}
	if add != nil {
		next.adds = append(next.adds, add)
	}
	if len(next.adds) > len(cur.tree.entries)+foldSlack {
		next.tree = flatTree(append([]*entry(nil), t.entries...))
		next.adds = nil
	}
	t.snap.Store(next)
}

// charge books waste rule slots against s's tree and recompiles it when
// the debt has paid for a compile. Only one reader compiles a tree; the
// others keep scanning it meanwhile.
func (t *Table) charge(s *snapshot, waste int64) {
	if s.tree.debt.Add(waste) < compileWeight*int64(s.n+leafSize) ||
		!s.tree.compiling.CompareAndSwap(false, true) {
		return
	}
	tree := compileTree(s.live())
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	if cur.tree != s.tree {
		return // a writer folded the table meanwhile
	}
	// The new tree holds everything live at s.version; keep the additions
	// made after it that are still installed.
	var adds []*entry
	for _, e := range cur.adds {
		if e.added > s.version && e.removed.Load() == 0 {
			adds = append(adds, e)
		}
	}
	next := t.newSnapshotLocked()
	*next = snapshot{version: cur.version, tree: tree, adds: adds, n: cur.n}
	t.snap.Store(next)
}

// newSnapshotLocked carves a snapshot out of the slab, so a churning
// table allocates once per snapshotSlab publishes rather than once per
// mutation. Each slot is written once, before it is published. The price
// is that the current snapshot's slab keeps at most snapshotSlab-1
// superseded snapshots, and the trees they point at, reachable. Callers
// hold mu.
func (t *Table) newSnapshotLocked() *snapshot {
	if len(t.snaps) == 0 {
		t.snaps = make([]snapshot, snapshotSlab)
	}
	s := &t.snaps[0]
	t.snaps = t.snaps[1:]
	return s
}

// Name returns the table's diagnostic name.
func (t *Table) Name() string { return t.name }

// SetVictimFn installs a custom eviction picker consulted before the
// built-in policy ordering (cost-aware caching). Set it before the table
// is shared across goroutines.
func (t *Table) SetVictimFn(fn VictimFunc) {
	t.mu.Lock()
	t.victimFn = fn
	t.mu.Unlock()
}

// Pin protects rule id from eviction until a matching Unpin. Pins are
// refcounted, may be taken before the rule is installed (an in-flight
// install), and never block expiry or explicit deletion — only capacity
// eviction skips pinned entries.
func (t *Table) Pin(id uint64) {
	t.mu.Lock()
	if t.pins == nil {
		t.pins = make(map[uint64]int)
	}
	t.pins[id]++
	t.mu.Unlock()
}

// Unpin releases one Pin reference on rule id.
func (t *Table) Unpin(id uint64) {
	t.mu.Lock()
	if c := t.pins[id]; c <= 1 {
		delete(t.pins, id)
	} else {
		t.pins[id] = c - 1
	}
	t.mu.Unlock()
}

// Pinned reports whether rule id currently holds at least one pin.
func (t *Table) Pinned(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pins[id] > 0
}

// SetCapacity changes the entry limit at time now and evicts down to the
// new limit via the eviction ordering (OnEvict fires for each victim,
// outside the mutex). Capacity 0 is unlimited; a negative capacity
// admits nothing — the TCAM-budget enforcement uses it when mandatory
// rules consume the whole budget. Returns the number of entries evicted.
func (t *Table) SetCapacity(now float64, capacity int) int {
	t.mu.Lock()
	t.capacity = capacity
	var evicted []*entry
	if capacity != 0 {
		limit := capacity
		if limit < 0 {
			limit = 0
		}
		for len(t.entries) > limit {
			victim := t.pickVictimLocked(now)
			if victim == nil {
				break // everything left is pinned
			}
			if len(evicted) == 0 {
				t.version++
			}
			t.removeEntryLocked(victim)
			t.Evictions.Add(1)
			evicted = append(evicted, victim)
		}
		if len(evicted) > 0 {
			t.publishLocked(nil)
		}
	}
	t.mu.Unlock()
	if t.OnEvict != nil {
		for _, e := range evicted {
			t.OnEvict(e.snapshot())
		}
	}
	return len(evicted)
}

// atLimitLocked reports whether an insert would exceed the entry limit.
func (t *Table) atLimitLocked() bool {
	if t.capacity == 0 {
		return false
	}
	limit := t.capacity
	if limit < 0 {
		limit = 0
	}
	return len(t.entries) >= limit
}

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.snap.Load().n }

// Capacity returns the entry limit (0 = unlimited, negative = admits
// nothing; see SetCapacity).
func (t *Table) Capacity() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.capacity
}

// Insert installs a rule at time now. If a rule with the same ID exists it
// is replaced in place (counters reset, as an OpenFlow flow-mod would). If
// the table is full the eviction policy picks a victim; with EvictNone the
// insert fails with ErrFull.
func (t *Table) Insert(now float64, r flowspace.Rule, idle, hard float64) error {
	var evicted *entry
	t.mu.Lock()
	t.version++
	if old, ok := t.byID[r.ID]; ok {
		t.removeEntryLocked(old)
	}
	if t.atLimitLocked() {
		if t.policy != EvictNone {
			evicted = t.pickVictimLocked(now)
		}
		if evicted == nil {
			t.publishLocked(nil)
			t.mu.Unlock()
			return ErrFull
		}
		t.removeEntryLocked(evicted)
		t.Evictions.Add(1)
	}
	e := &entry{
		rule:        r,
		idleTimeout: idle,
		hardTimeout: hard,
		installed:   now,
		added:       t.version,
	}
	e.setLastHit(now)
	// Insert preserving TCAM order.
	i := t.searchLocked(&e.rule)
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	t.byID[r.ID] = e
	t.publishLocked(e)
	t.mu.Unlock()
	// Hooks fire outside mu, after the mutation is visible (same contract
	// as Advance's OnExpire).
	if evicted != nil && t.OnEvict != nil {
		t.OnEvict(evicted.snapshot())
	}
	if t.OnInstall != nil {
		t.OnInstall(e.snapshot())
	}
	return nil
}

// searchLocked returns the index of the first entry r does not follow in
// TCAM order.
func (t *Table) searchLocked(r *flowspace.Rule) int {
	return sort.Search(len(t.entries), func(i int) bool {
		return !t.entries[i].rule.Precedes(r)
	})
}

// Delete removes the rule with the given ID, reporting whether it existed.
func (t *Table) Delete(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		return false
	}
	t.version++
	t.removeEntryLocked(e)
	t.publishLocked(nil)
	return true
}

// DeleteWhere removes all entries for which pred returns true and returns
// how many were removed.
func (t *Table) DeleteWhere(pred func(Entry) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var victims []*entry
	for _, e := range t.entries {
		if pred(e.snapshot()) {
			victims = append(victims, e)
		}
	}
	t.removeAllLocked(victims)
	return len(victims)
}

// removeAllLocked removes victims as one mutation.
func (t *Table) removeAllLocked(victims []*entry) {
	if len(victims) == 0 {
		return
	}
	t.version++
	for _, e := range victims {
		t.removeEntryLocked(e)
	}
	t.publishLocked(nil)
}

// removeEntryLocked takes e out of the table state at t.version; the
// caller publishes.
func (t *Table) removeEntryLocked(e *entry) {
	e.removed.Store(t.version)
	delete(t.byID, e.rule.ID)
	if i := t.searchLocked(&e.rule); i < len(t.entries) && t.entries[i] == e {
		t.entries = append(t.entries[:i], t.entries[i+1:]...)
	}
}

// pickVictimLocked returns the entry to evict under a total order, so
// eviction is deterministic: LRU orders by (lastHit, packets, ID)
// ascending, LFU by (packets, lastHit, ID) ascending. Pinned entries
// (in-flight installs) are never selected. When a VictimFunc is set it is
// consulted first over the unpinned candidates; the built-in ordering is
// the fallback when it declines.
func (t *Table) pickVictimLocked(now float64) *entry {
	if t.victimFn != nil {
		cands, live := t.cands[:0], t.candEntries[:0]
		for _, e := range t.entries {
			if t.pins[e.rule.ID] > 0 {
				continue
			}
			cands = append(cands, VictimCandidate{
				ID:        e.rule.ID,
				Rule:      &e.rule,
				Packets:   e.packets.Load(),
				LastHit:   e.lastHit(),
				Installed: e.installed,
			})
			live = append(live, e)
		}
		t.cands, t.candEntries = cands, live
		if len(cands) == 0 {
			return nil
		}
		if i := t.victimFn(now, cands); i >= 0 && i < len(live) {
			return live[i]
		}
	}
	var victim *entry
	better := func(a, b *entry) bool {
		switch t.policy {
		case EvictLRU:
			if ah, bh := a.lastHit(), b.lastHit(); ah != bh {
				return ah < bh
			}
			if ap, bp := a.packets.Load(), b.packets.Load(); ap != bp {
				return ap < bp
			}
		case EvictLFU:
			if ap, bp := a.packets.Load(), b.packets.Load(); ap != bp {
				return ap < bp
			}
			if ah, bh := a.lastHit(), b.lastHit(); ah != bh {
				return ah < bh
			}
		}
		return a.rule.ID < b.rule.ID
	}
	for _, e := range t.entries {
		if t.pins[e.rule.ID] > 0 {
			continue
		}
		if victim == nil || better(e, victim) {
			victim = e
		}
	}
	return victim
}

// Lookup returns a handle to the highest-priority rule matching k,
// updating its counters with the packet's size, and false on a miss. It
// is lock-free: it searches the published snapshot and touches only
// atomic counters, so it never contends with concurrent installs.
func (t *Table) Lookup(now float64, k flowspace.Key, size int) (*flowspace.Rule, bool) {
	s := t.snap.Load()
	e, waste := s.find(&k)
	if waste > 0 {
		t.charge(s, int64(waste))
	}
	if e == nil {
		t.Misses.Add(1)
		return nil, false
	}
	e.hit(now, size)
	t.Hits.Add(1)
	return &e.rule, true
}

// hit applies a matched packet to the entry's counters.
func (e *entry) hit(now float64, size int) {
	e.packets.Add(1)
	e.bytes.Add(uint64(size))
	e.setLastHit(now)
}

// View is a per-burst acquisition of the table's read state: one atomic
// load serves every lookup of a packet burst, so the whole burst sees one
// table state, and the table-level hit/miss counters and the compile debt
// are folded in once at Release instead of per packet. A View must be
// Released, and must not outlive the burst.
type View struct {
	t      *Table
	s      *snapshot
	hits   uint64
	misses uint64
	waste  int64
}

// AcquireView starts a burst of lookups against a consistent table state.
func (t *Table) AcquireView() View { return View{t: t, s: t.snap.Load()} }

// Lookup is Table.Lookup against the view's snapshot; per-entry counters
// update immediately (they are atomics), table-level hit/miss tallies
// accumulate locally until Release.
func (v *View) Lookup(now float64, k *flowspace.Key, size int) (*flowspace.Rule, bool) {
	e, waste := v.s.find(k)
	v.waste += int64(waste)
	if e == nil {
		v.misses++
		return nil, false
	}
	e.hit(now, size)
	v.hits++
	return &e.rule, true
}

// Release ends the burst: accumulated hit/miss counts land on the table,
// and the burst's scan debt may recompile the snapshot's tree.
func (v *View) Release() {
	if v.hits > 0 {
		v.t.Hits.Add(v.hits)
		v.hits = 0
	}
	if v.misses > 0 {
		v.t.Misses.Add(v.misses)
		v.misses = 0
	}
	if v.waste > 0 {
		v.t.charge(v.s, v.waste)
		v.waste = 0
	}
	v.s = nil
}

// Peek is Lookup without counter updates — for analysis passes.
func (t *Table) Peek(k flowspace.Key) (*flowspace.Rule, bool) {
	if e, _ := t.snap.Load().find(&k); e != nil {
		return &e.rule, true
	}
	return nil, false
}

// Advance expires entries whose idle or hard timeout has passed by time
// now, invoking OnExpire for each.
func (t *Table) Advance(now float64) {
	t.mu.Lock()
	var expired []*entry
	for _, e := range t.entries {
		if e.expiresAt() <= now {
			expired = append(expired, e)
		}
	}
	t.removeAllLocked(expired)
	t.mu.Unlock()
	if t.OnExpire != nil {
		for _, e := range expired {
			t.OnExpire(e.snapshot())
		}
	}
}

// NextExpiry returns the earliest pending expiry time and false if no entry
// has a timeout armed.
func (t *Table) NextExpiry() (float64, bool) {
	const never = 1e30
	best := never
	t.mu.Lock()
	for _, e := range t.entries {
		if at := e.expiresAt(); at < best {
			best = at
		}
	}
	t.mu.Unlock()
	return best, best < never
}

// liveEntries copies the installed entries, in TCAM order, under mu.
func (t *Table) liveEntries() []*entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*entry(nil), t.entries...)
}

// Entries returns a snapshot of the entries in TCAM order.
func (t *Table) Entries() []Entry {
	live := t.liveEntries()
	out := make([]Entry, len(live))
	for i, e := range live {
		out[i] = e.snapshot()
	}
	return out
}

// Counters returns the packet/byte counters for rule id.
func (t *Table) Counters(id uint64) (packets, bytes uint64, ok bool) {
	t.mu.Lock()
	e, found := t.byID[id]
	t.mu.Unlock()
	if !found {
		return 0, 0, false
	}
	return e.packets.Load(), e.bytes.Load(), true
}

// Rules returns the installed rules in TCAM order.
func (t *Table) Rules() []flowspace.Rule {
	live := t.liveEntries()
	out := make([]flowspace.Rule, len(live))
	for i, e := range live {
		out[i] = e.rule
	}
	return out
}

// String renders a small diagnostic dump.
func (t *Table) String() string {
	live := t.liveEntries()
	var b strings.Builder
	fmt.Fprintf(&b, "table %s (%d/%d entries, %d hits, %d misses)\n",
		t.name, len(live), t.Capacity(), t.Hits.Load(), t.Misses.Load())
	for _, e := range live {
		fmt.Fprintf(&b, "  %v pkts=%d\n", e.rule, e.packets.Load())
	}
	return b.String()
}
