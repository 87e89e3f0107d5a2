// Package snapshot is the module's one versioned checkpoint layer: every
// durable execution state — a single process run, a daemon-scheduled run,
// a whole missweep grid — is serialized through the same self-describing
// envelope, so every consumer (the mis Restore functions, the batch-sweep
// resume path in internal/experiment, the -checkpoint/-resume flags of
// cmd/misrun and cmd/missweep) shares one format, one version gate, and one
// corruption check.
//
// Envelope layout (little-endian):
//
//	magic   [8]byte  "SSMISNAP"
//	version uint32   format version (Version)
//	kindLen uint32   length of the kind string
//	kind    []byte   payload kind ("process", "sweep", ...)
//	paylen  uint64   length of the JSON payload
//	payload []byte   JSON encoding of the payload value
//	crc     uint32   CRC-32 (IEEE) over every preceding byte
//
// Decode rejects — loudly, with a typed error — anything that is not an
// intact snapshot of the expected kind and version: foreign files
// (ErrMagic), version skew (ErrVersion), truncation (ErrTruncated), bit rot
// (ErrCorrupt), and kind confusion (ErrKind). Resuming from a damaged
// checkpoint silently producing wrong numbers is the failure mode this
// layer exists to rule out; cmd/misfuzz fuzzes the rejection paths.
//
// Files written through WriteFile are atomic: the bytes land in a temporary
// file in the target directory and are renamed over the destination, so a
// reader (or a process killed mid-write) never observes a torn snapshot.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Version is the snapshot format version. Decode accepts exactly this
// version: the format carries full execution state (RNG streams, coverage
// stamps), so silently reinterpreting another version's bytes could resume
// a subtly different execution.
const Version = 1

// Payload kinds.
const (
	// KindProcess is a single process execution (internal/mis checkpoints).
	KindProcess = "process"
	// KindSweep is a whole-sweep checkpoint (internal/experiment).
	KindSweep = "sweep"
)

const magic = "SSMISNAP"

// maxKindLen bounds the kind string so corrupt headers cannot drive huge
// allocations before the CRC check.
const maxKindLen = 128

// Typed decode failures, wrapped with context; test with errors.Is.
var (
	// ErrMagic marks data that is not a snapshot envelope at all.
	ErrMagic = errors.New("snapshot: not a snapshot (bad magic)")
	// ErrVersion marks a snapshot from a different format version.
	ErrVersion = errors.New("snapshot: format version mismatch")
	// ErrTruncated marks a snapshot cut short (partial write, partial copy).
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt marks a checksum failure or trailing garbage.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrKind marks an intact snapshot of the wrong payload kind.
	ErrKind = errors.New("snapshot: wrong payload kind")
)

// Encode wraps payload (JSON-encoded) in the versioned envelope.
func Encode(kind string, payload any) ([]byte, error) {
	if len(kind) == 0 || len(kind) > maxKindLen {
		return nil, fmt.Errorf("snapshot: kind %q length outside [1, %d]", kind, maxKindLen)
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot: marshal %s payload: %w", kind, err)
	}
	buf := make([]byte, 0, len(magic)+16+len(kind)+len(body)+4)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(kind)))
	buf = append(buf, kind...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode validates the envelope and unmarshals the payload into out. The
// expected kind must match the envelope's; see the package comment for the
// rejection contract.
func Decode(data []byte, kind string, out any) error {
	gotKind, body, err := open(data)
	if err != nil {
		return err
	}
	if gotKind != kind {
		return fmt.Errorf("%w: have %q, want %q", ErrKind, gotKind, kind)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%w: %s payload: %v", ErrCorrupt, kind, err)
	}
	return nil
}

// open validates the envelope and returns (kind, payload bytes).
func open(data []byte) (string, []byte, error) {
	header := len(magic) + 8 // magic + version + kindLen
	if len(data) < header {
		return "", nil, fmt.Errorf("%w: %d bytes, shorter than the header", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return "", nil, ErrMagic
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	if version != Version {
		return "", nil, fmt.Errorf("%w: snapshot is version %d, this build reads version %d",
			ErrVersion, version, Version)
	}
	kindLen := int(binary.LittleEndian.Uint32(data[len(magic)+4:]))
	if kindLen == 0 || kindLen > maxKindLen {
		return "", nil, fmt.Errorf("%w: kind length %d outside [1, %d]", ErrCorrupt, kindLen, maxKindLen)
	}
	if len(data) < header+kindLen+8 {
		return "", nil, fmt.Errorf("%w: header promises a %d-byte kind", ErrTruncated, kindLen)
	}
	kind := string(data[header : header+kindLen])
	payLen := binary.LittleEndian.Uint64(data[header+kindLen:])
	want := header + kindLen + 8 + int(payLen) + 4
	if uint64(want) < payLen || len(data) < want {
		return "", nil, fmt.Errorf("%w: header promises a %d-byte payload, file has %d bytes",
			ErrTruncated, payLen, len(data))
	}
	if len(data) > want {
		return "", nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-want)
	}
	sum := crc32.ChecksumIEEE(data[:want-4])
	if got := binary.LittleEndian.Uint32(data[want-4:]); got != sum {
		return "", nil, fmt.Errorf("%w: checksum %08x, computed %08x", ErrCorrupt, got, sum)
	}
	return kind, data[header+kindLen+8 : want-4], nil
}

// WriteFile atomically writes an encoded snapshot: the envelope is staged
// in a temporary file next to path and renamed into place, so a concurrent
// reader or an interrupted writer never leaves a torn checkpoint behind.
func WriteFile(path, kind string, payload any) error {
	data, err := Encode(kind, payload)
	if err != nil {
		return err
	}
	return WriteEncoded(path, data)
}

// WriteEncoded is WriteFile for an already-encoded envelope — callers that
// must encode under a lock (or a scheduler quiesce) but want the disk I/O
// outside it split the two steps.
func WriteEncoded(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: stage %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: stage %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: stage %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: publish %s: %w", path, err)
	}
	return nil
}

// ReadFile reads and decodes a snapshot file of the expected kind.
func ReadFile(path, kind string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	if err := Decode(data, kind, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
