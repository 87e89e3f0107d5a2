package bitset

import (
	"testing"
	"testing/quick"

	"ssmis/internal/xrand"
)

func TestBasicMembership(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("set does not contain %d after Add", i)
		}
		s.Remove(i)
		if s.Contains(i) {
			t.Fatalf("set contains %d after Remove", i)
		}
	}
}

func TestSetToAndFlip(t *testing.T) {
	s := New(70)
	s.SetTo(69, true)
	if !s.Contains(69) {
		t.Fatal("SetTo(69,true) failed")
	}
	s.SetTo(69, false)
	if s.Contains(69) {
		t.Fatal("SetTo(69,false) failed")
	}
	s.Flip(3)
	if !s.Contains(3) {
		t.Fatal("Flip on absent element failed")
	}
	s.Flip(3)
	if s.Contains(3) {
		t.Fatal("Flip on present element failed")
	}
}

func TestCountAndEmpty(t *testing.T) {
	s := New(200)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	for i := 0; i < 200; i += 3 {
		s.Add(i)
	}
	if got, want := s.Count(), 67; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if s.Empty() {
		t.Fatal("nonempty set reported Empty")
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear did not empty the set")
	}
}

func TestFillRespectsCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if got := s.Count(); got != n {
			t.Fatalf("Fill on capacity %d gives Count %d", n, got)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i) // evens
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i) // multiples of 3
	}

	u := a.Clone()
	u.Union(b)
	inter := a.Clone()
	inter.Intersect(b)
	diff := a.Clone()
	diff.Subtract(b)

	for i := 0; i < 100; i++ {
		even, mult3 := i%2 == 0, i%3 == 0
		if u.Contains(i) != (even || mult3) {
			t.Fatalf("union wrong at %d", i)
		}
		if inter.Contains(i) != (even && mult3) {
			t.Fatalf("intersection wrong at %d", i)
		}
		if diff.Contains(i) != (even && !mult3) {
			t.Fatalf("difference wrong at %d", i)
		}
	}
	if got, want := a.IntersectionCount(b), inter.Count(); got != want {
		t.Fatalf("IntersectionCount = %d, want %d", got, want)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects false for overlapping sets")
	}
	empty := New(100)
	if a.Intersects(empty) {
		t.Fatal("Intersects true against empty set")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New(64)
	a.Add(5)
	a.Add(63)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal to original")
	}
	b.Add(6)
	if a.Equal(b) {
		t.Fatal("modified clone equal to original")
	}
	if a.Equal(New(65)) {
		t.Fatal("sets of different capacity reported equal")
	}
	c := New(64)
	c.CopyFrom(a)
	if !c.Equal(a) {
		t.Fatal("CopyFrom result differs")
	}
}

func TestForEachOrderAndElements(t *testing.T) {
	s := New(300)
	want := []int{0, 2, 64, 128, 199, 299}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elements(nil)
	if len(got) != len(want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(20)
	if got := s.String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
	s.Add(1)
	s.Add(10)
	if got := s.String(); got != "{1 10}" {
		t.Fatalf("String = %q, want {1 10}", got)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union across capacities did not panic")
		}
	}()
	New(10).Union(New(11))
}

// Property: De Morgan-ish identity |A ∪ B| = |A| + |B| − |A ∩ B| over random
// sets.
func TestInclusionExclusionProperty(t *testing.T) {
	rng := xrand.New(77)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 1 + r.Intn(257)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if r.Bit() {
				a.Add(i)
			}
			if r.Bit() {
				b.Add(i)
			}
		}
		u := a.Clone()
		u.Union(b)
		return u.Count() == a.Count()+b.Count()-a.IntersectionCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Subtract then Union with the subtrahend's intersection restores
// nothing beyond the original: (A \ B) ∩ B = ∅ and (A \ B) ∪ (A ∩ B) = A.
func TestSubtractPartitionProperty(t *testing.T) {
	rng := xrand.New(78)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 1 + r.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if r.Bit() {
				a.Add(i)
			}
			if r.Bit() {
				b.Add(i)
			}
		}
		diff := a.Clone()
		diff.Subtract(b)
		if diff.Intersects(b) {
			return false
		}
		inter := a.Clone()
		inter.Intersect(b)
		diff.Union(inter)
		return diff.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < s.Len(); i += 7 {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

func BenchmarkForEach(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < s.Len(); i += 7 {
		s.Add(i)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(j int) { sink += j })
	}
	_ = sink
}
