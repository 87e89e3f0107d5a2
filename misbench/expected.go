package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"slices"
	"time"
)

// expected.json holds, per workload and workload seed, the outcomes this
// commit produced: the rounds and random bits of every process seed, and
// the digest of every sweep table. Every run is a pure function of its
// inputs, so any difference is a failure. Regenerate an entry with
// --record misbench/expected.json after a change that is meant to alter
// the coin lineage or a table.
//
//go:embed expected.json
var expectedJSON []byte

// record is the recorded outcome of one (workload, seed).
type record struct {
	Runs   map[uint64][2]int64 `json:"runs,omitempty"`   // process seed -> rounds, random bits
	Tables []string            `json:"tables,omitempty"` // table digests in sweep order
}

// expectedFile maps workload -> workload seed -> record.
type expectedFile map[string]map[uint64]*record

func parseExpected(data []byte) (expectedFile, error) {
	ef := expectedFile{}
	if err := json.Unmarshal(data, &ef); err != nil {
		return nil, fmt.Errorf("parse expected values: %w", err)
	}
	return ef, nil
}

// recorded returns the embedded record for (workload, seed), or nil.
func recorded(workload string, seed uint64) (*record, error) {
	ef, err := parseExpected(expectedJSON)
	if err != nil {
		return nil, err
	}
	return ef[workload][seed], nil
}

// digest names a table's rendered bytes.
func digest(rendered string) string {
	sum := sha256.Sum256([]byte(rendered))
	return hex.EncodeToString(sum[:8])
}

// maxMsgs caps the mismatches printed; all of them are counted.
const maxMsgs = 20

// checker compares outputs with the recorded record and, for seeds without
// one, each repeat of a run or a sweep with its first execution in this
// invocation. It is used from one goroutine at a time.
type checker struct {
	want      *record
	seen      map[uint64][2]int64
	tables    []string
	attempted int
	failed    int
	msgs      []string
}

func newChecker(want *record) *checker {
	return &checker{want: want, seen: map[uint64][2]int64{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < maxMsgs {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// run checks one process run: it must stabilize within its cap, its black
// set must pass verify.MIS (verr), and its rounds and random bits must equal
// the recorded ones.
func (c *checker) run(seed uint64, stabilized bool, verr error, rounds int, bits int64) {
	c.attempted++
	got := [2]int64{int64(rounds), bits}
	switch {
	case !stabilized:
		c.fail("seed %d: no stabilization within %d rounds", seed, rounds)
		return
	case verr != nil:
		c.fail("seed %d: verify.MIS: %v", seed, verr)
		return
	}
	ref, ok := c.seen[seed]
	if c.want != nil {
		ref, ok = c.want.Runs[seed]
		if !ok {
			c.fail("seed %d: no recorded rounds and bits", seed)
			return
		}
	}
	if !ok {
		c.seen[seed] = got
		return
	}
	if got != ref {
		c.fail("seed %d: rounds %d bits %d, recorded rounds %d bits %d", seed, got[0], got[1], ref[0], ref[1])
	}
}

// sweep checks one sweep's table digests, each table one attempt.
func (c *checker) sweep(digests []string) {
	ref := c.tables
	if c.want != nil {
		ref = c.want.Tables
	} else if ref == nil {
		c.tables = digests
		c.attempted += len(digests)
		return
	}
	n := max(len(ref), len(digests))
	c.attempted += n
	for i := 0; i < n; i++ {
		switch {
		case i >= len(digests):
			c.fail("table %d missing (recorded %d tables, got %d)", i, len(ref), len(digests))
		case i >= len(ref):
			c.fail("table %d not recorded (recorded %d tables, got %d)", i, len(ref), len(digests))
		case digests[i] != ref[i]:
			c.fail("table %d digest %s, recorded %s", i, digests[i], ref[i])
		}
	}
}

// recordSeed runs the workload once, without timing, and merges its outputs
// into the expected-values file at path.
func recordSeed(cfg config, wl workload, path string) error {
	cfg.budget, cfg.trace = time.Duration(0), false
	cfg.size.gnpSetups, cfg.size.clSetups, cfg.size.sweepSetups = 1, 1, 1
	ck := newChecker(nil)
	if _, err := wl(cfg, ck); err != nil {
		return err
	}
	if ck.failed > 0 {
		return fmt.Errorf("not recording: %v", ck.msgs)
	}
	ef := expectedFile{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return fmt.Errorf("read %s: %w", path, err)
	default:
		if ef, err = parseExpected(data); err != nil {
			return err
		}
	}
	if ef[cfg.workload] == nil {
		ef[cfg.workload] = map[uint64]*record{}
	}
	rec := &record{Tables: ck.tables}
	if len(ck.seen) > 0 {
		rec.Runs = ck.seen
	}
	ef[cfg.workload][cfg.seed] = rec
	out, err := ef.encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// encode writes one line per (workload, seed), so a re-recorded seed shows
// as one changed line.
func (ef expectedFile) encode() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("{")
	for i, wl := range slices.Sorted(maps.Keys(ef)) {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n%q: {", wl)
		for j, seed := range slices.Sorted(maps.Keys(ef[wl])) {
			rec, err := json.Marshal(ef[wl][seed])
			if err != nil {
				return nil, fmt.Errorf("encode expected values: %w", err)
			}
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n \"%d\": %s", seed, rec)
		}
		b.WriteString("\n}")
	}
	b.WriteString("\n}\n")
	return b.Bytes(), nil
}
