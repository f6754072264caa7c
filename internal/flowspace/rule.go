package flowspace

import (
	"fmt"
	"sort"
)

// ActionKind enumerates what a rule does with a matching packet.
type ActionKind uint8

const (
	// ActDrop discards the packet.
	ActDrop ActionKind = iota
	// ActForward sends the packet toward the egress switch in Arg.
	ActForward
	// ActRedirect encapsulates the packet toward the authority switch in
	// Arg (the action carried by DIFANE partition rules).
	ActRedirect
	// ActController punts the packet to the central controller (the
	// Ethane/NOX baseline's miss action).
	ActController
	// ActCount counts the packet and continues (monitoring rules).
	ActCount
)

var actionNames = map[ActionKind]string{
	ActDrop:       "drop",
	ActForward:    "forward",
	ActRedirect:   "redirect",
	ActController: "controller",
	ActCount:      "count",
}

func (k ActionKind) String() string {
	if s, ok := actionNames[k]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", uint8(k))
}

// Action is what a rule applies to matching packets. Arg is the egress
// switch for ActForward and the authority switch for ActRedirect.
type Action struct {
	Kind ActionKind
	Arg  uint32
}

func (a Action) String() string {
	switch a.Kind {
	case ActForward, ActRedirect:
		return fmt.Sprintf("%s(%d)", a.Kind, a.Arg)
	default:
		return a.Kind.String()
	}
}

// Rule is a prioritized ternary rule. Higher Priority wins; ties are broken
// by lower ID (insertion order), matching TCAM behaviour.
type Rule struct {
	ID       uint64
	Priority int32
	Match    Match
	Action   Action
}

func (r Rule) String() string {
	return fmt.Sprintf("#%d p=%d %s -> %s", r.ID, r.Priority, r.Match, r.Action)
}

// Before reports whether r is examined before o in a TCAM holding both.
func (r Rule) Before(o Rule) bool { return r.Precedes(&o) }

// Precedes is Before on handles, for scans that must not copy rules.
func (r *Rule) Precedes(o *Rule) bool {
	if r.Priority != o.Priority {
		return r.Priority > o.Priority
	}
	return r.ID < o.ID
}

// SortRules orders rules highest-priority first (TCAM order), in place.
func SortRules(rs []Rule) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Before(rs[j]) })
}

// EvalTable returns the highest-priority rule in rs (any order) matching k,
// or false if none matches. It is the semantic reference against which all
// faster lookup structures are tested.
func EvalTable(rs []Rule, k Key) (Rule, bool) {
	best := -1
	for i := range rs {
		if rs[i].Match.Has(&k) && (best < 0 || rs[i].Precedes(&rs[best])) {
			best = i
		}
	}
	if best < 0 {
		return Rule{}, false
	}
	return rs[best], true
}

// Shadowed reports whether rule rs[i] can never match any packet because
// higher-priority rules jointly cover it. It is exact for single-rule
// covers and for covers expressible as the subtraction chain.
func Shadowed(rs []Rule, i int) bool {
	target := rs[i]
	pieces := []Match{target.Match}
	for j, r := range rs {
		if j == i || !r.Before(target) {
			continue
		}
		var next []Match
		for _, p := range pieces {
			next = append(next, p.Subtract(r.Match)...)
		}
		pieces = next
		if len(pieces) == 0 {
			return true
		}
	}
	return false
}

// DependentSet returns the rules in rs with higher match precedence than
// rs[i] whose matches overlap rs[i]'s match — the set that must accompany
// rs[i] into a cache for the cached table to stay semantically safe under
// the dependent-set strategy. Indices into rs are returned.
func DependentSet(rs []Rule, i int) []int {
	var deps []int
	for j, r := range rs {
		if j == i {
			continue
		}
		if r.Before(rs[i]) && r.Match.Overlaps(rs[i].Match) {
			deps = append(deps, j)
		}
	}
	return deps
}

// CoverFor computes a cover cache rule for the packet k that matched rule
// rs[hit] (indices into rs, which may be in any order) within the clip
// region: a match that (a) contains k, (b) lies inside clip ∩ rs[hit], and
// (c) excludes every higher-priority overlapping rule, so caching it with
// rs[hit]'s action is semantically exact. Returns false if the packet sits
// on a sliver that the subtraction could not isolate (callers then fall
// back to an exact-match cache rule).
func CoverFor(rs []Rule, hit int, clip Match, k Key) (Match, bool) {
	region, ok := rs[hit].Match.Intersect(clip)
	if !ok || !region.Has(&k) {
		return Match{}, false
	}
	pieces := []Match{region}
	for j := range rs {
		r := &rs[j]
		if j == hit || !r.Precedes(&rs[hit]) || !r.Match.Overlaps(region) {
			continue
		}
		var next []Match
		for i := range pieces {
			if !pieces[i].Has(&k) {
				// Keep only the piece chain containing the packet; the
				// others can never be the returned cover.
				continue
			}
			next = append(next, pieces[i].Subtract(r.Match)...)
		}
		pieces = next
	}
	for i := range pieces {
		if pieces[i].Has(&k) {
			return pieces[i], true
		}
	}
	return Match{}, false
}
