package snapshot

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/trerr"
)

// writeGen writes one generation holding a single named stream.
func writeGen(t *testing.T, s *Store, name string, payload []byte) {
	t.Helper()
	cp, err := s.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	w, err := cp.Stream(name, TypeManifest)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := cp.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func readStream(t *testing.T, s *Store, name string) []byte {
	t.Helper()
	r, err := s.OpenStream(name, TypeManifest)
	if err != nil {
		t.Fatalf("OpenStream(%q): %v", name, err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll(%q): %v", name, err)
	}
	return data
}

func TestStoreRoundTripAndGenerations(t *testing.T) {
	dev := blockio.NewMemDevice(128)
	s, err := Open(dev)
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	if err := s.Err(); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("fresh store Err = %v, want ErrBadSnapshot", err)
	}

	// Payload spanning several 128-byte pages.
	payload := bytes.Repeat([]byte("temporal-rank-snapshot-"), 40)
	writeGen(t, s, "a", payload)
	if s.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s.Generation())
	}
	if got := readStream(t, s, "a"); !bytes.Equal(got, payload) {
		t.Fatalf("stream a mismatch: %d bytes vs %d", len(got), len(payload))
	}

	// Second generation through the same store, then a reopen.
	writeGen(t, s, "b", []byte("second"))
	if s.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", s.Generation())
	}
	extentAfter2 := dev.NumPages()

	s2, err := Open(dev)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Generation() != 2 {
		t.Fatalf("reopened generation = %d, want 2", s2.Generation())
	}
	if got := readStream(t, s2, "b"); string(got) != "second" {
		t.Fatalf("stream b = %q", got)
	}
	if _, err := s2.OpenStream("a", TypeManifest); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("dead generation's stream still visible: %v", err)
	}

	// Space reclamation: many more generations should not grow the
	// device much beyond two generations' footprint.
	for i := 0; i < 20; i++ {
		writeGen(t, s2, "a", payload)
	}
	if extent := dev.NumPages(); extent > 2*extentAfter2+8 {
		t.Fatalf("extent grew to %d after 20 generations (was %d after 2): free-set reuse broken", extent, extentAfter2)
	}
}

func TestStoreRejectsCorruptPage(t *testing.T) {
	dev := blockio.NewMemDevice(128)
	s, _ := Open(dev)
	payload := bytes.Repeat([]byte("x"), 500)
	writeGen(t, s, "a", payload)

	// Flip a byte in every data page except the headers; at least one
	// reopened read must fail with the typed error.
	var hit bool
	for id := 2; id < dev.NumPages(); id++ {
		buf := make([]byte, 128)
		if err := dev.Read(blockio.PageID(id), buf); err != nil {
			continue
		}
		buf[20] ^= 0xff
		if err := dev.Write(blockio.PageID(id), buf); err != nil {
			t.Fatalf("corrupt page %d: %v", id, err)
		}
		s2, err := Open(dev)
		if err != nil {
			t.Fatalf("Open after corruption: %v", err)
		}
		loadErr := s2.Err()
		if loadErr == nil {
			r, err := s2.OpenStream("a", TypeManifest)
			if err == nil {
				_, err = io.ReadAll(r)
			}
			loadErr = err
		}
		if loadErr != nil {
			if !errors.Is(loadErr, trerr.ErrBadSnapshot) {
				t.Fatalf("corruption surfaced as untyped error: %v", loadErr)
			}
			hit = true
		}
		buf[20] ^= 0xff // restore
		if err := dev.Write(blockio.PageID(id), buf); err != nil {
			t.Fatalf("restore page %d: %v", id, err)
		}
	}
	if !hit {
		t.Fatal("no corruption detected across any data page")
	}
}

func TestStoreTornHeaderFallsBack(t *testing.T) {
	dev := blockio.NewMemDevice(128)
	s, _ := Open(dev)
	writeGen(t, s, "a", []byte("gen-one"))
	writeGen(t, s, "a", []byte("gen-two"))

	// Tear the newest header (slot 0 holds gen 1, slot 1 holds gen 2
	// after two commits; find it by decoding).
	for slot := 0; slot < 2; slot++ {
		buf := make([]byte, 128)
		if err := dev.Read(blockio.PageID(slot), buf); err != nil {
			t.Fatal(err)
		}
		h, err := decodeHeader(buf, 128)
		if err != nil || h.gen != 2 {
			continue
		}
		buf[41] ^= 0xff // corrupt the header CRC
		if err := dev.Write(blockio.PageID(slot), buf); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open with torn header: %v", err)
	}
	if s2.Generation() != 1 {
		t.Fatalf("generation = %d, want fallback to 1", s2.Generation())
	}
	if got := readStream(t, s2, "a"); string(got) != "gen-one" {
		t.Fatalf("fallback content = %q, want gen-one", got)
	}
}

func TestVersionGate(t *testing.T) {
	// Both an older and a newer format are refused: gob would silently
	// drop the fields of an older file's index state that this build's
	// structs no longer have.
	for _, version := range []uint32{FormatVersion - 1, FormatVersion + 1} {
		dev := blockio.NewMemDevice(128)
		s, _ := Open(dev)
		writeGen(t, s, "a", []byte("data"))

		// Rewrite both headers claiming the other format version.
		for slot := 0; slot < 2; slot++ {
			buf := make([]byte, 128)
			if err := dev.Read(blockio.PageID(slot), buf); err != nil {
				t.Fatal(err)
			}
			if _, err := decodeHeader(buf, 128); err != nil {
				continue
			}
			encodeHeader(buf, header{version: version, blockSize: 128, gen: 9})
			if err := dev.Write(blockio.PageID(slot), buf); err != nil {
				t.Fatal(err)
			}
		}
		s2, err := Open(dev)
		if err != nil {
			t.Fatalf("version %d: Open: %v", version, err)
		}
		if err := s2.Err(); !errors.Is(err, trerr.ErrSnapshotVersion) {
			t.Fatalf("version %d: Err = %v, want ErrSnapshotVersion", version, err)
		}
		if _, err := s2.Begin(); !errors.Is(err, trerr.ErrSnapshotVersion) {
			t.Fatalf("version %d: Begin = %v, want refusal with ErrSnapshotVersion", version, err)
		}
	}
}
