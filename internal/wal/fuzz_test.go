package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpen writes arbitrary bytes as both the log and the snapshot and
// checks recovery never panics, salvages exactly an intact prefix of
// the log, and leaves a directory that reopens cleanly to the same
// state.
func FuzzOpen(f *testing.F) {
	valid := encodeRecord([]byte(`{"op":"submit","id":"j-000001"}`))
	oversize := make([]byte, headerSize+4)
	binary.LittleEndian.PutUint32(oversize[0:4], MaxRecord+1)
	flipped := append([]byte(nil), valid...)
	flipped[5] ^= 0xff

	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid[:len(valid)-3]...)) // torn tail
	f.Add(oversize)
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, name := range []string{logName, snapName} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if rec.TruncatedBytes < 0 || rec.TruncatedBytes > int64(len(data)) {
			t.Fatalf("TruncatedBytes %d outside [0, %d]", rec.TruncatedBytes, len(data))
		}
		var framed []byte
		for _, r := range rec.Records {
			framed = append(framed, encodeRecord(r)...)
		}
		if kept := data[:int64(len(data))-rec.TruncatedBytes]; !bytes.Equal(framed, kept) {
			t.Fatalf("re-framed records (%d bytes) differ from the kept log prefix (%d bytes)", len(framed), len(kept))
		}
		if (rec.Snapshot == nil) != rec.SnapshotCorrupt {
			t.Fatalf("snapshot recovered=%v but corrupt=%v", rec.Snapshot != nil, rec.SnapshotCorrupt)
		}

		l, again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if again.TruncatedBytes != 0 {
			t.Fatalf("repaired log still truncated %d bytes on reopen", again.TruncatedBytes)
		}
		if !reflect.DeepEqual(again.Records, rec.Records) {
			t.Fatalf("reopen recovered %d records, first open %d", len(again.Records), len(rec.Records))
		}
		if !bytes.Equal(again.Snapshot, rec.Snapshot) || again.SnapshotCorrupt != rec.SnapshotCorrupt {
			t.Fatal("reopen recovered a different snapshot")
		}
	})
}
