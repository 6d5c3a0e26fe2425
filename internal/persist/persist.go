// Package persist implements crash-safe persistence for long runs: a
// WAL-style run journal (length-prefixed records with CRC32C, fsync on
// commit) and atomic whole-file writes (temp file + Sync + rename). The
// journal gives the epoch controller the property every long-horizon
// control scheme in the related work assumes but this reproduction
// lacked: a run killed at any instant — SIGKILL, OOM, power loss —
// resumes from its last committed epoch and produces byte-identical
// remaining output versus an uninterrupted run. Recovery replays the
// whole journal; there is no second, compacted copy of the state.
//
// Recovery is paranoid by design. Every failure mode either recovers
// exactly or fails loudly with a typed Error — never silently diverges:
//
//   - A torn tail (the record being written when the process died) is
//     detected by an incomplete header/payload or a CRC mismatch on the
//     final record, and truncated at the last valid record. Because the
//     run is deterministic, the truncated-away epochs are simply
//     recomputed — over-truncation is always safe, silent corruption
//     never is.
//   - A CRC mismatch on any record that is *followed by more data* is
//     real corruption (bit rot, a concurrent writer), not a torn write,
//     and fails with KindCorrupt.
//   - Records carry strictly increasing sequence numbers; a duplicate or
//     regressing sequence fails with KindCorrupt.
//   - The journal carries a caller-supplied run tag (a hash of the run
//     configuration); opening with a different tag fails with
//     KindMismatch, so a checkpoint can never silently resume under
//     different flags.
//
// The package is storage only: it moves opaque []byte payloads. Record
// schemas live with their owners (internal/controller, experiments).
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Kind classifies a persistence failure.
type Kind int

const (
	// KindIO: the underlying filesystem operation failed.
	KindIO Kind = iota
	// KindCorrupt: stored bytes fail validation (bad magic, CRC mismatch
	// on a non-tail record, sequence regression) — fail loudly, never
	// replay.
	KindCorrupt
	// KindMismatch: the journal belongs to a different run configuration
	// (run-tag mismatch).
	KindMismatch
)

func (k Kind) String() string {
	switch k {
	case KindIO:
		return "io"
	case KindCorrupt:
		return "corrupt"
	case KindMismatch:
		return "mismatch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Error is a typed persistence failure; the solve-pipeline taxonomy
// (internal/solvererr) classifies it as a Persist failure.
type Error struct {
	// Op names the failing operation ("journal open", "journal commit", …).
	Op string
	// Kind classifies the failure.
	Kind Kind
	// Path is the file involved, when known.
	Path string
	// Cause is the underlying error (may be nil for pure validation
	// failures).
	Cause error
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("persist: %s (%s)", e.Op, e.Kind)
	if e.Path != "" {
		msg += " " + e.Path
	}
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the cause for errors.Is/As.
func (e *Error) Unwrap() error { return e.Cause }

// IsCorrupt reports whether err is a persist failure of kind KindCorrupt.
func IsCorrupt(err error) bool {
	var pe *Error
	return errors.As(err, &pe) && pe.Kind == KindCorrupt
}

func newErr(op string, kind Kind, path string, cause error) *Error {
	return &Error{Op: op, Kind: kind, Path: path, Cause: cause}
}

// castagnoli is the CRC32C table (the checksum used by ext4, btrfs and
// every serious WAL; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TagLen is the byte length of a run tag (a SHA-256 of the run
// configuration, by convention).
const TagLen = 32

// Tag identifies the run configuration a journal belongs to.
type Tag [TagLen]byte

// WriteFileAtomic writes a file via temp-file + Sync + rename, so a crash
// or full disk can never leave a torn file at path: readers observe either
// the old content or the complete new content. The write callback streams
// the content; any error from it (or from Sync/Close/Rename) aborts and
// removes the temp file.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	af, err := NewAtomicFile(path)
	if err != nil {
		return err
	}
	if err := write(af); err != nil {
		af.Abort()
		return err
	}
	return af.Commit()
}

// AtomicFile is an io.Writer that becomes visible at its final path only
// on Commit (Sync + Close + rename). Until then the bytes live in a
// temporary file in the same directory, so a crash mid-write leaves the
// final path untouched. Abort discards the temp file; calling it after
// Commit is a no-op, so `defer af.Abort()` is safe.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// NewAtomicFile starts an atomic write of path.
func NewAtomicFile(path string) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, newErr("atomic create", KindIO, path, err)
	}
	// CreateTemp uses 0600; match os.Create's 0666-minus-umask so the
	// final file's permissions don't depend on how it was written.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, newErr("atomic chmod", KindIO, path, err)
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write implements io.Writer.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit makes the content durable and visible at the final path. The
// Sync and Close errors are checked — an ENOSPC discovered at close time
// aborts instead of renaming a truncated file into place.
func (a *AtomicFile) Commit() error {
	if a.done {
		return nil
	}
	a.done = true
	tmp := a.f.Name()
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(tmp)
		return newErr("atomic sync", KindIO, a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(tmp)
		return newErr("atomic close", KindIO, a.path, err)
	}
	if err := os.Rename(tmp, a.path); err != nil {
		os.Remove(tmp)
		return newErr("atomic rename", KindIO, a.path, err)
	}
	syncDir(filepath.Dir(a.path))
	return nil
}

// Abort discards the temp file. No-op after Commit.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	tmp := a.f.Name()
	a.f.Close()
	os.Remove(tmp)
}

// syncDir fsyncs a directory so a rename or append survives power loss.
// Best-effort: some filesystems refuse directory fsync, and the data-file
// sync already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
