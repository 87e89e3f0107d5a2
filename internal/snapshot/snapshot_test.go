package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmis/internal/xrand"
)

type testPayload struct {
	Name  string  `json:"name"`
	Data  []byte  `json:"data,omitempty"`
	Count int     `json:"count"`
	X     float64 `json:"x"`
}

func randomPayload(r *xrand.Rand) testPayload {
	data := make([]byte, r.Intn(512))
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return testPayload{
		Name:  strings.Repeat("x", 1+r.Intn(40)),
		Data:  data,
		Count: r.Intn(1 << 20),
		X:     r.Float64(),
	}
}

// Property: Decode(Encode(p)) == p for arbitrary payloads and kinds.
func TestEnvelopeRoundTrip(t *testing.T) {
	r := xrand.New(1)
	for i := 0; i < 200; i++ {
		kind := []string{KindProcess, KindSweep, "custom-kind"}[r.Intn(3)]
		in := randomPayload(r)
		blob, err := Encode(kind, &in)
		if err != nil {
			t.Fatal(err)
		}
		if k, _, err := open(blob); err != nil || k != kind {
			t.Fatalf("kind = %q, %v; want %q", k, err, kind)
		}
		var out testPayload
		if err := Decode(blob, kind, &out); err != nil {
			t.Fatal(err)
		}
		if out.Name != in.Name || out.Count != in.Count || out.X != in.X || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("case %d: payload did not round-trip", i)
		}
	}
}

// Property: EVERY strict prefix of a valid snapshot is rejected — a partial
// write or partial copy can never resume silently wrong.
func TestEnvelopeRejectsEveryTruncation(t *testing.T) {
	blob, err := Encode(KindProcess, randomPayload(xrand.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	var out testPayload
	for cut := 0; cut < len(blob); cut++ {
		if err := Decode(blob[:cut], KindProcess, &out); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", cut, len(blob))
		}
	}
}

// Property: EVERY single-byte corruption of a valid snapshot is rejected
// (the CRC covers the whole envelope; the CRC field itself then
// mismatches).
func TestEnvelopeRejectsEveryByteFlip(t *testing.T) {
	blob, err := Encode(KindProcess, randomPayload(xrand.New(3)))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(4)
	var out testPayload
	for pos := 0; pos < len(blob); pos++ {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= byte(1 + r.Intn(255))
		if err := Decode(mut, KindProcess, &out); err == nil {
			t.Fatalf("flip at byte %d accepted", pos)
		}
	}
}

func TestEnvelopeTypedErrors(t *testing.T) {
	blob, err := Encode(KindProcess, randomPayload(xrand.New(5)))
	if err != nil {
		t.Fatal(err)
	}
	var out testPayload

	// Foreign data: the old bare-JSON checkpoint format, and arbitrary junk.
	if err := Decode([]byte(`{"process":"2-state"}`+strings.Repeat(" ", 64)), KindProcess, &out); !errors.Is(err, ErrMagic) {
		t.Fatalf("bare JSON: %v, want ErrMagic", err)
	}
	// Version skew: bump the version field and re-seal the checksum so only
	// the version gate can reject it.
	skew := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(skew[len(magic):], Version+1)
	reseal(skew)
	if err := Decode(skew, KindProcess, &out); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: %v, want ErrVersion", err)
	}
	// Kind confusion.
	if err := Decode(blob, KindSweep, &out); !errors.Is(err, ErrKind) {
		t.Fatalf("kind mismatch: %v, want ErrKind", err)
	}
	// Trailing garbage.
	if err := Decode(append(append([]byte(nil), blob...), 0xFF), KindProcess, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v, want ErrCorrupt", err)
	}
	// Payload flip -> checksum.
	mut := append([]byte(nil), blob...)
	mut[len(blob)/2] ^= 0x20
	if err := Decode(mut, KindProcess, &out); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("payload flip: %v, want ErrCorrupt/ErrTruncated", err)
	}
	// Truncation.
	if err := Decode(blob[:10], KindProcess, &out); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncation: %v, want ErrTruncated", err)
	}
}

// reseal recomputes the trailing CRC after a deliberate header edit.
func reseal(blob []byte) {
	sum := crc32.ChecksumIEEE(blob[:len(blob)-4])
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], sum)
}

func TestWriteFileAtomicAndReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	in := randomPayload(xrand.New(6))
	if err := WriteFile(path, KindSweep, &in); err != nil {
		t.Fatal(err)
	}
	var out testPayload
	if err := ReadFile(path, KindSweep, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || !bytes.Equal(out.Data, in.Data) {
		t.Fatal("file round-trip mismatch")
	}
	// Overwrite must replace, not append, and leave no staging files behind.
	in2 := randomPayload(xrand.New(7))
	if err := WriteFile(path, KindSweep, &in2); err != nil {
		t.Fatal(err)
	}
	if err := ReadFile(path, KindSweep, &out); err != nil || out.Name != in2.Name {
		t.Fatalf("overwrite: %v (name %q vs %q)", err, out.Name, in2.Name)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two writes (staging leak?)", len(entries))
	}
	if err := ReadFile(filepath.Join(dir, "missing.ckpt"), KindSweep, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRngsRoundTrip(t *testing.T) {
	master := xrand.New(8)
	rngs := make([]*xrand.Rand, 16)
	for i := range rngs {
		rngs[i] = master.Split(uint64(i))
		for k := 0; k < i; k++ {
			rngs[i].Uint64() // desynchronize the streams
		}
	}
	blobs, err := MarshalRngs(rngs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRngs(blobs, len(rngs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rngs {
		for k := 0; k < 8; k++ {
			if a, b := rngs[i].Uint64(), back[i].Uint64(); a != b {
				t.Fatalf("stream %d draw %d: %d != %d", i, k, a, b)
			}
		}
	}
	if _, err := UnmarshalRngs(blobs, len(blobs)+1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
