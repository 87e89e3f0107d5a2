package bitset

import "testing"

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

func TestForEachOrderAndElements(t *testing.T) {
	s := New(300)
	want := []int{0, 2, 64, 128, 199, 299}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visits %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visits %v, want %v", got, want)
		}
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < 1<<16; i += 7 {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

func BenchmarkForEach(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < 1<<16; i += 7 {
		s.Add(i)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(j int) { sink += j })
	}
	_ = sink
}
