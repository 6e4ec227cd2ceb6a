package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 {
		t.Error("zero value should be empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Error("Add should report change exactly once")
	}
	if !s.Has(5) || s.Has(6) {
		t.Error("Has wrong")
	}
	if s.Len() != 1 {
		t.Error("Len wrong")
	}
	if !s.Remove(5) || s.Remove(5) {
		t.Error("Remove should report change exactly once")
	}
	if s.Has(5) {
		t.Error("Remove did not remove")
	}
}

func TestAddLargeValues(t *testing.T) {
	var s Set
	vals := []int32{0, 63, 64, 65, 1000, 100000}
	for _, v := range vals {
		s.Add(v)
	}
	if s.Len() != len(vals) {
		t.Errorf("Len = %d, want %d", s.Len(), len(vals))
	}
	got := s.Elems()
	for i, v := range vals {
		if got[i] != v {
			t.Errorf("Elems[%d] = %d, want %d", i, got[i], v)
		}
	}
}

// TestUnionInto checks the union-into-delta contract on a small case:
// UnionWords adds src to the destination and records exactly the
// elements that were new in delta.
func TestUnionInto(t *testing.T) {
	var a, b, delta Set
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(3)
	b.Add(100)
	added, scanned := a.UnionWords(&b, nil, nil, &delta, nil)
	if got := delta.Elems(); len(got) != 2 || got[0] != 3 || got[1] != 100 {
		t.Errorf("delta = %v, want [3 100]", got)
	}
	if added != 2 || scanned != 3 {
		t.Errorf("added, scanned = %d, %d, want 2, 3", added, scanned)
	}
	if a.Len() != 4 {
		t.Errorf("a.Len = %d, want 4", a.Len())
	}
	// Second union adds nothing.
	var again Set
	if added, _ := a.UnionWords(&b, nil, nil, &again, nil); added != 0 || !again.Empty() {
		t.Errorf("second union added %d, delta = %v, want empty", added, again.Elems())
	}
}

func TestUnion(t *testing.T) {
	var a, b Set
	b.Add(7)
	if !a.Union(&b) || a.Union(&b) {
		t.Error("Union change reporting wrong")
	}
	if !a.Has(7) {
		t.Error("Union did not add")
	}
}

func TestCloneAndEqual(t *testing.T) {
	var a Set
	for i := int32(0); i < 200; i += 3 {
		a.Add(i)
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone not equal")
	}
	c.Add(1)
	if a.Equal(c) {
		t.Error("mutated clone still equal")
	}
	// Equal with different word lengths.
	var small, big Set
	small.Add(1)
	big.Add(1)
	big.Add(1000)
	big.Remove(1000)
	if !small.Equal(&big) || !big.Equal(&small) {
		t.Error("Equal should ignore trailing zero words")
	}
}

func TestClear(t *testing.T) {
	var s Set
	s.Add(10)
	s.Add(500)
	s.Clear()
	if !s.Empty() {
		t.Error("Clear did not empty the set")
	}
	if !s.Add(10) {
		t.Error("Add after Clear should report change")
	}
}

// TestQuickAgainstMap property-tests Set against a map[int32]bool
// model under random operation sequences.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint32) bool {
		var s Set
		model := map[int32]bool{}
		for _, op := range ops {
			v := int32(op % 1024)
			switch (op / 1024) % 3 {
			case 0:
				changed := s.Add(v)
				if changed == model[v] {
					return false
				}
				model[v] = true
			case 1:
				changed := s.Remove(v)
				if changed != model[v] {
					return false
				}
				delete(model, v)
			case 2:
				if s.Has(v) != model[v] {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for v := range model {
			if !s.Has(v) {
				return false
			}
		}
		ok := true
		s.ForEach(func(v int32) {
			if !model[v] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionInto property-tests the unfiltered union kernel: the
// delta is exactly the set difference and the result is the union.
func TestQuickUnionInto(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b, delta Set
		am := map[int32]bool{}
		bm := map[int32]bool{}
		for _, x := range xs {
			a.Add(int32(x))
			am[int32(x)] = true
		}
		for _, y := range ys {
			b.Add(int32(y))
			bm[int32(y)] = true
		}
		added, _ := a.UnionWords(&b, nil, nil, &delta, nil)
		ok := true
		delta.ForEach(func(d int32) {
			if am[d] || !bm[d] {
				ok = false // delta must be b-minus-a
			}
		})
		if !ok || added != delta.Len() {
			return false
		}
		for v := range bm {
			if !am[v] && !delta.Has(v) {
				return false // every new element must be reported
			}
			if !a.Has(v) {
				return false // union must contain b
			}
		}
		return a.Len() == len(am)+delta.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var s Set
	for i := 0; i < b.N; i++ {
		s.Add(int32(r.Intn(1 << 16)))
	}
}

// TestOrDiffMasked checks the outbox-accumulation kernel against a
// reference computed element-wise: s gains (src \ skip) ∩ mask, the
// scanned count is |src \ skip| before the mask, and pre-existing
// elements of s survive.
func TestOrDiffMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		var s, src, skip, mask Set
		want := map[int32]bool{}
		for i := 0; i < rng.Intn(40); i++ {
			x := int32(rng.Intn(4096))
			s.Add(x)
			want[x] = true
		}
		for i := 0; i < rng.Intn(80); i++ {
			src.Add(int32(rng.Intn(4096)))
		}
		for i := 0; i < rng.Intn(80); i++ {
			skip.Add(int32(rng.Intn(4096)))
		}
		for i := 0; i < rng.Intn(80); i++ {
			mask.Add(int32(rng.Intn(4096)))
		}
		useSkip, useMask := rng.Intn(2) == 0, rng.Intn(2) == 0
		var skipP, maskP *Set
		if useSkip {
			skipP = &skip
		}
		if useMask {
			maskP = &mask
		}
		wantScanned := 0
		src.ForEach(func(x int32) {
			if useSkip && skip.Has(x) {
				return
			}
			wantScanned++
			if useMask && !mask.Has(x) {
				return
			}
			want[x] = true
		})
		scanned := s.OrDiffMasked(&src, skipP, maskP)
		if scanned != wantScanned {
			t.Fatalf("iter %d: scanned = %d, want %d", iter, scanned, wantScanned)
		}
		if s.Len() != len(want) {
			t.Fatalf("iter %d: len = %d, want %d", iter, s.Len(), len(want))
		}
		for x := range want {
			if !s.Has(x) {
				t.Fatalf("iter %d: missing %d", iter, x)
			}
		}
	}
	// Self-accumulation with skip aliasing the destination is the
	// parallel solver's "propagate pt minus delta into an outbox that
	// already saw pt" shape; src aliasing s must also be harmless
	// (src \ s contributes nothing new).
	var s Set
	s.Add(1)
	s.Add(70)
	if got := s.OrDiffMasked(&s, &s, nil); got != 0 {
		t.Fatalf("self OrDiffMasked scanned = %d, want 0", got)
	}
	if s.Len() != 2 {
		t.Fatalf("self OrDiffMasked changed the set: len %d", s.Len())
	}
}

// randModel fills s with up to n elements drawn from [lo, lo+span) and
// returns them as a map model.
func randModel(rng *rand.Rand, s *Set, n int, lo, span int32) map[int32]bool {
	m := map[int32]bool{}
	for i := rng.Intn(n + 1); i > 0; i-- {
		x := lo + rng.Int31n(span)
		s.Add(x)
		m[x] = true
	}
	return m
}

// TestUnionWords property-tests the union kernel against a map model:
// random src, skip and mask sets (each optionally nil for skip and
// mask), a pre-filled destination and delta, and per-set base ids that
// put the operands' backing arrays at different word offsets —
// including the high-id offsets of a context explosion. It checks the
// resulting set and delta, the added and scanned counts, and that
// visit reports every new element exactly once and nothing else.
func TestUnionWords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := func() int32 {
		if rng.Intn(2) == 0 {
			return rng.Int31n(256)
		}
		return 150_000 + rng.Int31n(4096)
	}
	for iter := 0; iter < 500; iter++ {
		lo := base()
		var dst, delta, src, skip, mask Set
		dstM := randModel(rng, &dst, 60, lo+rng.Int31n(300), 600)
		deltaM := randModel(rng, &delta, 30, lo+rng.Int31n(300), 600)
		srcM := randModel(rng, &src, 120, lo, 900)
		skipM := randModel(rng, &skip, 120, lo+rng.Int31n(300), 600)
		maskM := randModel(rng, &mask, 200, lo+rng.Int31n(300), 600)
		var skipP, maskP *Set
		if rng.Intn(3) > 0 {
			skipP = &skip
		}
		if rng.Intn(3) > 0 {
			maskP = &mask
		}

		wantNew := map[int32]bool{}
		wantScanned := 0
		for x := range srcM {
			if skipP != nil && skipM[x] {
				continue
			}
			wantScanned++
			if maskP != nil && !maskM[x] {
				continue
			}
			if !dstM[x] {
				wantNew[x] = true
			}
		}

		visited := map[int32]bool{}
		words := map[int]bool{}
		ok := true
		visit := func(word int, bits uint64) {
			if bits == 0 || words[word] {
				ok = false
			}
			words[word] = true
			for b := 0; b < wordBits; b++ {
				if bits&(1<<uint(b)) == 0 {
					continue
				}
				x := int32(word*wordBits + b)
				if visited[x] || !wantNew[x] {
					ok = false
				}
				visited[x] = true
			}
		}
		added, scanned := dst.UnionWords(&src, skipP, maskP, &delta, visit)

		if !ok || len(visited) != len(wantNew) {
			t.Fatalf("iter %d: visit reported %d elements (duplicates or strays: %v), want exactly the %d new ones",
				iter, len(visited), !ok, len(wantNew))
		}
		if added != len(wantNew) {
			t.Fatalf("iter %d: added = %d, want %d", iter, added, len(wantNew))
		}
		if scanned != wantScanned {
			t.Fatalf("iter %d: scanned = %d, want %d", iter, scanned, wantScanned)
		}
		for x := range wantNew {
			dstM[x] = true
			deltaM[x] = true
		}
		for name, c := range map[string]struct {
			s *Set
			m map[int32]bool
		}{"set": {&dst, dstM}, "delta": {&delta, deltaM}} {
			if c.s.Len() != len(c.m) {
				t.Fatalf("iter %d: %s len = %d, want %d", iter, name, c.s.Len(), len(c.m))
			}
			for x := range c.m {
				if !c.s.Has(x) {
					t.Fatalf("iter %d: %s missing %d", iter, name, x)
				}
			}
		}

		// A nil visit changes nothing but the reporting: a repeat union
		// adds nothing and scans the same candidates.
		if a, sc := dst.UnionWords(&src, skipP, maskP, &delta, nil); a != 0 || sc != wantScanned {
			t.Fatalf("iter %d: repeat union = (%d, %d), want (0, %d)", iter, a, sc, wantScanned)
		}
	}
}
