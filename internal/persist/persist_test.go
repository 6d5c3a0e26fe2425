package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func testTag(b byte) Tag {
	var t Tag
	for i := range t {
		t[i] = b
	}
	return t
}

// buildJournal writes a journal with the given payloads and returns its
// path and raw bytes.
func buildJournal(t *testing.T, dir string, tag Tag, payloads ...[]byte) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "j.wal")
	j, err := CreateJournal(path, tag)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	for i, p := range payloads {
		if err := j.Append(uint64(i+1), p); err != nil {
			t.Fatalf("Append %d: %v", i+1, err)
		}
	}
	if err := j.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return path, data
}

func kindOf(t *testing.T, err error) Kind {
	t.Helper()
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *persist.Error", err)
	}
	return pe.Kind
}

func TestJournalRoundTrip(t *testing.T) {
	tag := testTag(7)
	payloads := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 1000)}
	path, _ := buildJournal(t, t.TempDir(), tag, payloads...)

	j, recs, err := OpenJournal(path, tag)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	if len(recs) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Errorf("record %d: payload mismatch", i)
		}
	}
	if j.LastSeq() != uint64(len(payloads)) {
		t.Errorf("LastSeq %d, want %d", j.LastSeq(), len(payloads))
	}

	// The recovered journal accepts further appends with later sequences
	// and rejects a regression.
	if err := j.Append(2, []byte("dup")); err == nil {
		t.Error("Append with old sequence succeeded, want error")
	}
	if err := j.Append(uint64(len(payloads)+1), []byte("next")); err != nil {
		t.Errorf("Append after recovery: %v", err)
	}
	if err := j.Commit(); err != nil {
		t.Errorf("Commit after recovery: %v", err)
	}
}

// Torn-tail cases: every truncation point inside the final record must
// recover the earlier records, drop the tail, and leave the file
// appendable.
func TestJournalTornTailTruncated(t *testing.T) {
	tag := testTag(1)
	dir := t.TempDir()
	_, full := buildJournal(t, dir, tag, []byte("first"), []byte("second-payload"))

	headerLen := len(journalMagic) + TagLen
	rec1End := headerLen + recHeaderLen + len("first")
	cases := []struct {
		name string
		cut  int // bytes kept
	}{
		{"mid header", rec1End + recHeaderLen/2},
		{"header only", rec1End + recHeaderLen},
		{"mid payload", rec1End + recHeaderLen + 4},
		{"one byte short", len(full) - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.wal")
			if err := os.WriteFile(path, full[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j, recs, err := OpenJournal(path, tag)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			defer j.Close()
			if len(recs) != 1 || string(recs[0].Payload) != "first" {
				t.Fatalf("recovered %d records, want just the first", len(recs))
			}
			// The torn bytes are gone from disk; appending resumes at seq 2.
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(rec1End) {
				t.Errorf("file size %d after truncation, want %d", fi.Size(), rec1End)
			}
			if err := j.Append(2, []byte("replacement")); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			if err := j.Commit(); err != nil {
				t.Fatal(err)
			}
			j.Close()
			_, recs2, err := OpenJournal(path, tag)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if len(recs2) != 2 || string(recs2[1].Payload) != "replacement" {
				t.Fatalf("after re-append recovered %d records", len(recs2))
			}
		})
	}
}

func TestJournalCRCBitFlip(t *testing.T) {
	tag := testTag(2)
	dir := t.TempDir()
	_, full := buildJournal(t, dir, tag, []byte("first"), []byte("second"))
	headerLen := len(journalMagic) + TagLen
	rec1End := headerLen + recHeaderLen + len("first")

	t.Run("final record is a torn tail", func(t *testing.T) {
		data := append([]byte(nil), full...)
		data[len(data)-1] ^= 0x40 // flip a bit in the last record's payload
		path := filepath.Join(t.TempDir(), "flip.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path, tag)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		j.Close()
		if len(recs) != 1 {
			t.Fatalf("recovered %d records, want 1 (corrupt tail dropped)", len(recs))
		}
	})

	t.Run("non-final record fails loudly", func(t *testing.T) {
		data := append([]byte(nil), full...)
		data[rec1End-1] ^= 0x40 // flip a bit in the FIRST record's payload
		path := filepath.Join(t.TempDir(), "flip.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenJournal(path, tag)
		if err == nil {
			t.Fatal("OpenJournal succeeded on mid-file corruption")
		}
		if k := kindOf(t, err); k != KindCorrupt {
			t.Errorf("kind %v, want KindCorrupt", k)
		}
	})
}

func TestJournalDuplicateSeq(t *testing.T) {
	tag := testTag(3)
	// Hand-build a journal whose second record repeats sequence 1 by
	// duplicating the first record's bytes.
	_, full := buildJournal(t, t.TempDir(), tag, []byte("only"))
	headerLen := len(journalMagic) + TagLen
	rec := full[headerLen:]
	data := append(append([]byte(nil), full...), rec...)
	path := filepath.Join(t.TempDir(), "dup.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path, tag)
	if err == nil {
		t.Fatal("OpenJournal accepted a duplicate sequence")
	}
	if k := kindOf(t, err); k != KindCorrupt {
		t.Errorf("kind %v, want KindCorrupt", k)
	}
}

func TestJournalTagMismatch(t *testing.T) {
	path, _ := buildJournal(t, t.TempDir(), testTag(4), []byte("x"))
	_, _, err := OpenJournal(path, testTag(5))
	if err == nil {
		t.Fatal("OpenJournal accepted a foreign tag")
	}
	if k := kindOf(t, err); k != KindMismatch {
		t.Errorf("kind %v, want KindMismatch", k)
	}
}

func TestJournalBadMagic(t *testing.T) {
	path, data := buildJournal(t, t.TempDir(), testTag(4), []byte("x"))
	data[0] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path, testTag(4))
	if err == nil {
		t.Fatal("OpenJournal accepted bad magic")
	}
	if k := kindOf(t, err); k != KindCorrupt {
		t.Errorf("kind %v, want KindCorrupt", k)
	}
}

func TestJournalOpenMissing(t *testing.T) {
	// Resuming from a directory with no journal is an error, not a silent
	// fresh start — the caller asked to resume something.
	_, _, err := OpenJournal(filepath.Join(t.TempDir(), "j.wal"), testTag(13))
	if err == nil {
		t.Fatal("OpenJournal succeeded without a journal file")
	}
	if k := kindOf(t, err); k != KindIO {
		t.Errorf("kind %v, want KindIO", k)
	}
}

func TestJournalCreateDiscardsOldState(t *testing.T) {
	tag := testTag(14)
	path, _ := buildJournal(t, t.TempDir(), tag, []byte("old"), []byte("older"))

	j, err := CreateJournal(path, tag)
	if err != nil {
		t.Fatalf("CreateJournal over an existing journal: %v", err)
	}
	j.Close()
	j, recs, err := OpenJournal(path, tag)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	if len(recs) != 0 || j.LastSeq() != 0 {
		t.Fatalf("recreate left %d old records behind (LastSeq %d)", len(recs), j.LastSeq())
	}
}

func TestAtomicFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old content"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A write-callback failure leaves the old content untouched and no
	// temp litter.
	failErr := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error { return failErr })
	if !errors.Is(err, failErr) {
		t.Fatalf("WriteFileAtomic error %v, want boom", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "old content" {
		t.Fatalf("failed write changed the file to %q", data)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp file left behind: %v", ents)
	}

	// A successful write replaces the content.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new content"))
		return err
	}); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "new content" {
		t.Fatalf("file is %q after atomic write", data)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", fi.Mode().Perm())
	}

	// Abort after Commit is a no-op; double Abort is safe.
	af, err := NewAtomicFile(path)
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("third"))
	if err := af.Commit(); err != nil {
		t.Fatal(err)
	}
	af.Abort()
	af.Abort()
	if data, _ := os.ReadFile(path); string(data) != "third" {
		t.Fatalf("file is %q after commit+abort", data)
	}
}

func TestDecodeRecordsEmpty(t *testing.T) {
	recs, n, err := DecodeRecords(nil)
	if err != nil || n != 0 || len(recs) != 0 {
		t.Fatalf("DecodeRecords(nil) = %v, %d, %v", recs, n, err)
	}
}

func TestErrorFormatting(t *testing.T) {
	e := newErr("journal open", KindCorrupt, "/tmp/j.wal", errors.New("bad"))
	if got := e.Error(); got != "persist: journal open (corrupt) /tmp/j.wal: bad" {
		t.Errorf("Error() = %q", got)
	}
	if !IsCorrupt(fmt.Errorf("wrapped: %w", e)) {
		t.Error("IsCorrupt failed through wrapping")
	}
	if IsCorrupt(errors.New("plain")) {
		t.Error("IsCorrupt true for a plain error")
	}
}
