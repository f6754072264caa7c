package flowspace

import (
	"math/rand"
	"testing"
)

// randMatch builds a random match that only constrains a few fields, biased
// toward prefixes on the IP fields — the structure real policies have.
func randMatch(rng *rand.Rand) Match {
	m := MatchAll()
	if rng.Intn(2) == 0 {
		m = m.WithPrefix(FIPSrc, rng.Uint64(), uint(rng.Intn(33)))
	}
	if rng.Intn(2) == 0 {
		m = m.WithPrefix(FIPDst, rng.Uint64(), uint(rng.Intn(33)))
	}
	if rng.Intn(3) == 0 {
		m = m.WithExact(FTPDst, uint64(rng.Intn(1024)))
	}
	if rng.Intn(4) == 0 {
		m = m.WithExact(FIPProto, uint64([]int{6, 17, 1}[rng.Intn(3)]))
	}
	return m
}

func randKey(rng *rand.Rand) Key {
	var k Key
	for f := FieldID(0); f < NumFields; f++ {
		k[f] = rng.Uint64() & widthMask(fieldWidths[f])
	}
	return k
}

func randKeyIn(rng *rand.Rand, m Match) Key {
	var r [NumFields]uint64
	for i := range r {
		r[i] = rng.Uint64()
	}
	return m.RandomKeyIn(r)
}

func TestMatchAllMatchesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := MatchAll()
	if !m.IsAll() {
		t.Fatal("MatchAll must be IsAll")
	}
	for i := 0; i < 100; i++ {
		if !m.Matches(randKey(rng)) {
			t.Fatal("MatchAll must match any key")
		}
	}
}

// TestHasAgreesWithMatches holds the copy-free Has to the reference
// Matches, on keys inside and outside random matches.
func TestHasAgreesWithMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		m := randMatch(rng)
		k := randKey(rng)
		if i%2 == 0 {
			k = randKeyIn(rng, m)
		}
		if m.Has(&k) != m.Matches(k) {
			t.Fatalf("%v: Has(%v) = %v, Matches = %v", m, k, m.Has(&k), m.Matches(k))
		}
	}
}

func TestMatchBuildersAndString(t *testing.T) {
	m := MatchAll().
		WithPrefix(FIPSrc, 0x0A000000, 8).
		WithExact(FTPDst, 80)
	k := Key{}
	k[FIPSrc] = 0x0A010203
	k[FTPDst] = 80
	if !m.Matches(k) {
		t.Fatal("key inside both fields must match")
	}
	k[FTPDst] = 443
	if m.Matches(k) {
		t.Fatal("key with wrong port must not match")
	}
	if s := m.String(); s == "" || s == "*" {
		t.Fatalf("constrained match must render fields, got %q", s)
	}
	if MatchAll().String() != "*" {
		t.Fatal("MatchAll must render as *")
	}
}

// Property: Intersect is exactly the AND of the two membership predicates.
func TestMatchIntersectMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		a, b := randMatch(rng), randMatch(rng)
		inter, ok := a.Intersect(b)
		for j := 0; j < 32; j++ {
			var k Key
			switch j % 3 {
			case 0:
				k = randKeyIn(rng, a)
			case 1:
				k = randKeyIn(rng, b)
			default:
				k = randKey(rng)
			}
			want := a.Matches(k) && b.Matches(k)
			got := ok && inter.Matches(k)
			if got != want {
				t.Fatalf("intersect membership mismatch: a=%s b=%s k=%v want %v got %v",
					a, b, k, want, got)
			}
		}
	}
}

// Property: Subtract(a,b) is exactly a AND NOT b, and pieces are disjoint.
func TestMatchSubtractMembershipAndDisjointness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		a, b := randMatch(rng), randMatch(rng)
		pieces := a.Subtract(b)
		for pi := range pieces {
			for pj := pi + 1; pj < len(pieces); pj++ {
				if pieces[pi].Overlaps(pieces[pj]) {
					t.Fatalf("pieces overlap: %s and %s", pieces[pi], pieces[pj])
				}
			}
			if !a.Contains(pieces[pi]) {
				t.Fatalf("piece %s escapes a=%s", pieces[pi], a)
			}
			if pieces[pi].Overlaps(b) {
				// Overlap test is exact for ternary matches, so any overlap
				// with b is a correctness bug.
				t.Fatalf("piece %s overlaps subtracted b=%s", pieces[pi], b)
			}
		}
		for j := 0; j < 48; j++ {
			var k Key
			if j%2 == 0 {
				k = randKeyIn(rng, a)
			} else {
				k = randKey(rng)
			}
			want := a.Matches(k) && !b.Matches(k)
			got := false
			for _, p := range pieces {
				if p.Matches(k) {
					got = true
					break
				}
			}
			if got != want {
				t.Fatalf("subtract membership mismatch: a=%s b=%s want %v got %v", a, b, want, got)
			}
		}
	}
}

func TestMatchSubtractEdgeCases(t *testing.T) {
	a := MatchAll().WithPrefix(FIPSrc, 0x0A000000, 8)
	if got := a.Subtract(a); got != nil {
		t.Fatalf("a - a must be empty, got %v", got)
	}
	disjoint := MatchAll().WithPrefix(FIPSrc, 0x0B000000, 8)
	got := a.Subtract(disjoint)
	if len(got) != 1 || got[0] != a {
		t.Fatalf("a - disjoint must be {a}, got %v", got)
	}
	super := MatchAll()
	if got := a.Subtract(super); got != nil {
		t.Fatalf("a - everything must be empty, got %v", got)
	}
}

func TestSubtractAll(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := MatchAll().WithPrefix(FIPSrc, 0x0A000000, 8)
	subs := []Match{
		MatchAll().WithPrefix(FIPSrc, 0x0A000000, 16),
		MatchAll().WithPrefix(FIPSrc, 0x0A800000, 9),
		MatchAll().WithExact(FTPDst, 80),
	}
	pieces := a.SubtractAll(subs)
	for i := 0; i < 2000; i++ {
		k := randKeyIn(rng, a)
		want := true
		for _, s := range subs {
			if s.Matches(k) {
				want = false
				break
			}
		}
		got := false
		for _, p := range pieces {
			if p.Matches(k) {
				got = true
				break
			}
		}
		if got != want {
			t.Fatalf("SubtractAll membership mismatch at %v: want %v got %v", k, want, got)
		}
	}
}

func TestMatchContainsTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		a := randMatch(rng)
		b, okB := a.Intersect(randMatch(rng))
		if !okB {
			continue
		}
		c, okC := b.Intersect(randMatch(rng))
		if !okC {
			continue
		}
		if !a.Contains(b) || !b.Contains(c) {
			t.Fatal("intersection must be contained in its operands")
		}
		if !a.Contains(c) {
			t.Fatalf("containment must be transitive: a=%s b=%s c=%s", a, b, c)
		}
	}
}

func TestFreeBits(t *testing.T) {
	total := 0
	for f := FieldID(0); f < NumFields; f++ {
		total += int(fieldWidths[f])
	}
	if got := MatchAll().FreeBits(); got != total {
		t.Fatalf("MatchAll free bits = %d want %d", got, total)
	}
	m := MatchAll().WithPrefix(FIPSrc, 0, 8)
	if got := m.FreeBits(); got != total-8 {
		t.Fatalf("after /8: %d want %d", got, total-8)
	}
}

func TestRandomKeyInRespectsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		m := randMatch(rng)
		k := randKeyIn(rng, m)
		if !m.Matches(k) {
			t.Fatalf("RandomKeyIn produced key outside match %s: %v", m, k)
		}
		for f := FieldID(0); f < NumFields; f++ {
			if k[f] > widthMask(fieldWidths[f]) {
				t.Fatalf("key field %s exceeds width: %x", f, k[f])
			}
		}
	}
}
