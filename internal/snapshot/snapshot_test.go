package snapshot

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/trerr"
)

// writeSnapshot writes a snapshot of named manifest-typed streams onto
// a fresh device with the given block size.
func writeSnapshot(t testing.TB, bs int, streams ...[]byte) *blockio.MemDevice {
	t.Helper()
	dev := blockio.NewMemDevice(bs)
	cp, err := Begin(dev)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for i, payload := range streams {
		w, err := cp.Stream(string(rune('a'+i)), TypeManifest)
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	if err := cp.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return dev
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

// TestStoreRoundTripAndGenerations: a device holds one snapshot. Its
// streams read back as written, and Begin refuses to write a second
// generation over it.
func TestStoreRoundTripAndGenerations(t *testing.T) {
	if _, err := Open(blockio.NewMemDevice(128)); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("Open of an empty device = %v, want ErrBadSnapshot", err)
	}

	// The first payload spans several 128-byte pages.
	payload := bytes.Repeat([]byte("temporal-rank-snapshot-"), 40)
	dev := writeSnapshot(t, 128, payload, []byte("second"))
	s, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := readStream(t, s, "a"); !bytes.Equal(got, payload) {
		t.Fatalf("stream a mismatch: %d bytes vs %d", len(got), len(payload))
	}
	if got := readStream(t, s, "b"); string(got) != "second" {
		t.Fatalf("stream b = %q", got)
	}
	if _, err := s.OpenStream("c", TypeManifest); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("OpenStream of a missing stream = %v, want ErrBadSnapshot", err)
	}

	pages := dev.NumPages()
	if _, err := Begin(dev); !errors.Is(err, trerr.ErrBadConfig) {
		t.Fatalf("Begin on a written device = %v, want ErrBadConfig", err)
	}
	if dev.NumPages() != pages {
		t.Fatalf("refused Begin grew the device from %d to %d pages", pages, dev.NumPages())
	}
	if got := readStream(t, s, "a"); !bytes.Equal(got, payload) {
		t.Fatal("refused Begin changed the snapshot")
	}
}

// TestStoreRejectsCorruptPage flips a payload byte in each stream page
// in turn: every page belongs to the snapshot, so every flip must fail
// Open or the stream's read with the typed error.
func TestStoreRejectsCorruptPage(t *testing.T) {
	dev := writeSnapshot(t, 128, bytes.Repeat([]byte("x"), 500))
	buf := make([]byte, 128)
	for id := blockio.PageID(1); int(id) < dev.NumPages(); id++ {
		if err := dev.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		buf[20] ^= 0xff
		if err := dev.Write(id, buf); err != nil {
			t.Fatalf("corrupt page %d: %v", id, err)
		}
		s, err := Open(dev)
		if err == nil {
			var r io.Reader
			if r, err = s.OpenStream("a", TypeManifest); err == nil {
				_, err = io.ReadAll(r)
			}
		}
		if !errors.Is(err, trerr.ErrBadSnapshot) {
			t.Fatalf("corrupt page %d: got %v, want ErrBadSnapshot", id, err)
		}
		buf[20] ^= 0xff // restore
		if err := dev.Write(id, buf); err != nil {
			t.Fatalf("restore page %d: %v", id, err)
		}
	}
}

// TestStoreRejectsCyclicChain: a stream whose chain loops back on
// itself fails once it has read as many pages as the device holds,
// instead of looping until its forged length runs out.
func TestStoreRejectsCyclicChain(t *testing.T) {
	dev := writeSnapshot(t, 128, []byte("x")) // page 1: stream a; page 2: the TOC
	page := make([]byte, 128)
	rewrite := func(id blockio.PageID, typ byte, payload []byte, next blockio.PageID) {
		clear(page)
		copy(page[pageHeaderSize:], payload)
		encodePageHeader(page, typ, len(payload), next)
		if err := dev.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(1, TypeManifest, []byte("x"), 1)
	// The forged TOC has the length of the real one, so the header
	// still matches it.
	var toc bytes.Buffer
	if err := encodeTOC(&toc, []StreamInfo{{Name: "a", Type: TypeManifest, Head: 1, Len: 1 << 62}}); err != nil {
		t.Fatal(err)
	}
	rewrite(2, TypeTOC, toc.Bytes(), blockio.InvalidPage)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.OpenStream("a", TypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("reading a cyclic chain = %v, want ErrBadSnapshot", err)
	}
}

// TestStoreTornHeaderFails: a device holds one header, so a torn one
// leaves nothing to fall back to and Open fails with ErrBadSnapshot.
func TestStoreTornHeaderFails(t *testing.T) {
	dev := writeSnapshot(t, 128, []byte("only"))
	buf := make([]byte, 128)
	if err := dev.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[headerSize-1] ^= 0xff // corrupt the header CRC
	if err := dev.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("Open with a torn header = %v, want ErrBadSnapshot", err)
	}
}

func TestVersionGate(t *testing.T) {
	// Both an older and a newer format are refused: gob would silently
	// drop the fields of an older file's index state that this build's
	// structs no longer have.
	for _, version := range []uint32{FormatVersion - 1, FormatVersion + 1} {
		dev := writeSnapshot(t, 128, []byte("data"))
		buf := make([]byte, 128)
		if err := dev.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		encodeHeader(buf, header{version: version, blockSize: 128})
		if err := dev.Write(0, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dev); !errors.Is(err, trerr.ErrSnapshotVersion) {
			t.Fatalf("version %d: Open = %v, want ErrSnapshotVersion", version, err)
		}
	}
}

// image returns dev's pages end to end, as a snapshot file holds them.
func image(t testing.TB, dev blockio.Device) []byte {
	t.Helper()
	out := make([]byte, dev.NumPages()*dev.BlockSize())
	for id := 0; id < dev.NumPages(); id++ {
		if err := dev.Read(blockio.PageID(id), out[id*dev.BlockSize():]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// FuzzOpenStore opens arbitrary bytes as a snapshot device of 64-byte
// pages, dropping a trailing partial page as a reopened file does, and
// reads every stream its TOC lists. It must never panic, and every
// error must be typed.
func FuzzOpenStore(f *testing.F) {
	const bs = MinBlockSize
	valid := image(f, writeSnapshot(f, bs, bytes.Repeat([]byte("fuzz"), 30), []byte("second")))
	seedTruncations(f, valid)
	torn := bytes.Clone(valid)
	torn[headerSize-1] ^= 0xff
	f.Add(torn)
	other := bytes.Clone(valid)
	encodeHeader(other, header{version: FormatVersion + 1, blockSize: bs})
	f.Add(other)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dev := blockio.NewMemDevice(bs)
		for len(raw) >= bs {
			id, err := dev.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.Write(id, raw[:bs]); err != nil {
				t.Fatal(err)
			}
			raw = raw[bs:]
		}
		typed := func(err error) {
			if err != nil && !errors.Is(err, trerr.ErrBadSnapshot) && !errors.Is(err, trerr.ErrSnapshotVersion) {
				t.Fatalf("untyped error: %v", err)
			}
		}
		s, err := Open(dev)
		typed(err)
		if err != nil {
			return
		}
		for _, info := range s.Streams() {
			r, err := s.OpenStream(info.Name, info.Type)
			if err == nil {
				_, err = io.Copy(io.Discard, r)
			}
			typed(err)
		}
	})
}
