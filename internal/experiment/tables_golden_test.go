package experiment

// The two experiments whose rows run sched.Sequential.Run, pinned byte for
// byte: E10's "sequential (central)" row and E18's seq-det/seq-rand rows.
// However the sequential runner decides when a run is over, the rendered
// tables must not move. misbench/expected.json digests
// the same tables at scale 0.25, but the root module's tests never read
// it, so this test pins them where `go test ./...` looks.

import (
	"hash/fnv"
	"testing"
)

// wantTableDigests holds the FNV-64a digest of each table's CSV at scale
// 0.05, seed 2023, in the order the experiment returns them. They were
// recorded while Sequential.Run still ran every livelock to its step cap.
var wantTableDigests = map[string][]uint64{
	"E10": {0x56186e1ab78624d4, 0xe71d035ad9646657, 0xbd46cd904ae205f7},
	"E18": {0x9b43706c89f3c299},
}

func TestSequentialTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("table digests skipped in -short mode")
	}
	for _, id := range []string{"E10", "E18"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		tables := e.Run(Config{Scale: 0.05, Seed: 2023})
		want := wantTableDigests[id]
		if len(tables) != len(want) {
			t.Fatalf("%s rendered %d tables, want %d", id, len(tables), len(want))
		}
		for i, tab := range tables {
			csv := tab.CSV()
			h := fnv.New64a()
			h.Write([]byte(csv))
			if got := h.Sum64(); got != want[i] {
				t.Errorf("%s table %d (%s): digest %#x, want %#x\n%s", id, i, tab.Title, got, want[i], csv)
			}
		}
	}
}
