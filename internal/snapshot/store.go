package snapshot

import (
	"fmt"
	"io"
	"slices"

	"temporalrank/internal/blockio"
	"temporalrank/internal/trerr"
)

// StreamInfo describes one named stream of a snapshot.
type StreamInfo struct {
	Name string
	Type byte
	Head blockio.PageID
	Len  int64
}

// Store reads the one snapshot a device holds.
type Store struct {
	dev   blockio.Device
	bs    int
	pages int // device size: no stream chain is longer
	toc   []StreamInfo
}

// Open reads dev's header and table of contents. A device that holds
// no complete snapshot (empty, torn, truncated, or garbage) fails with
// an error wrapping ErrBadSnapshot, and one written by another format
// version with ErrSnapshotVersion. Stream pages are verified as
// OpenStream's readers reach them.
func Open(dev blockio.Device) (*Store, error) {
	bs := dev.BlockSize()
	if bs < MinBlockSize {
		return nil, fmt.Errorf("snapshot: block size %d below minimum %d: %w", bs, MinBlockSize, trerr.ErrBadConfig)
	}
	s := &Store{dev: dev, bs: bs, pages: dev.NumPages()}
	if s.pages == 0 {
		return nil, fmt.Errorf("snapshot: empty device: %w", trerr.ErrBadSnapshot)
	}
	buf := make([]byte, bs)
	if err := dev.Read(0, buf); err != nil {
		return nil, fmt.Errorf("snapshot: read header: %v: %w", err, trerr.ErrBadSnapshot)
	}
	h, err := decodeHeader(buf, bs)
	if err != nil {
		return nil, err
	}
	if s.toc, err = decodeTOC(s.reader(TypeTOC, h.tocHead, int64(h.tocLen))); err != nil {
		return nil, err
	}
	return s, nil
}

// Streams lists the snapshot's streams in checkpoint order.
func (s *Store) Streams() []StreamInfo { return slices.Clone(s.toc) }

// OpenStream returns a verifying reader over the named stream.
func (s *Store) OpenStream(name string, wantType byte) (io.Reader, error) {
	for _, info := range s.toc {
		if info.Name != name {
			continue
		}
		if info.Type != wantType {
			return nil, fmt.Errorf("snapshot: stream %q has type %d, want %d: %w",
				name, info.Type, wantType, trerr.ErrBadSnapshot)
		}
		return s.reader(info.Type, info.Head, info.Len), nil
	}
	return nil, fmt.Errorf("snapshot: stream %q not in snapshot: %w", name, trerr.ErrBadSnapshot)
}

func (s *Store) reader(typ byte, head blockio.PageID, n int64) *StreamReader {
	return &StreamReader{s: s, typ: typ, next: head, remaining: n}
}

// Checkpoint writes one snapshot onto a fresh device. Streams are
// written one at a time; Commit makes the device a complete snapshot.
// On any error the caller discards the device.
type Checkpoint struct {
	dev  blockio.Device
	bs   int
	toc  []StreamInfo
	cur  *StreamWriter
	err  error
	done bool
}

// Begin starts writing a snapshot onto dev, which must be empty: a
// device holds one snapshot and is never rewritten. Page 0 is reserved
// for the header Commit writes last.
func Begin(dev blockio.Device) (*Checkpoint, error) {
	bs := dev.BlockSize()
	if bs < MinBlockSize {
		return nil, fmt.Errorf("snapshot: block size %d below minimum %d: %w", bs, MinBlockSize, trerr.ErrBadConfig)
	}
	if n := dev.NumPages(); n != 0 {
		return nil, fmt.Errorf("snapshot: device already holds %d pages: %w", n, trerr.ErrBadConfig)
	}
	if _, err := dev.Alloc(); err != nil {
		return nil, fmt.Errorf("snapshot: allocate header page: %w", err)
	}
	return &Checkpoint{dev: dev, bs: bs}, nil
}

// alloc extends the device by one page.
func (cp *Checkpoint) alloc() (blockio.PageID, error) {
	id, err := cp.dev.Alloc()
	if err != nil {
		return blockio.InvalidPage, fmt.Errorf("snapshot: grow device: %w", err)
	}
	return id, nil
}

// Stream opens the next named stream for writing. The previous stream
// must be closed first.
func (cp *Checkpoint) Stream(name string, typ byte) (*StreamWriter, error) {
	if cp.err != nil {
		return nil, cp.err
	}
	if cp.done {
		return nil, fmt.Errorf("snapshot: checkpoint already committed: %w", trerr.ErrBadConfig)
	}
	if cp.cur != nil {
		return nil, fmt.Errorf("snapshot: stream %q still open: %w", cp.cur.name, trerr.ErrBadConfig)
	}
	head, err := cp.alloc()
	if err != nil {
		cp.err = err
		return nil, err
	}
	w := &StreamWriter{
		cp:    cp,
		name:  name,
		typ:   typ,
		head:  head,
		curID: head,
		buf:   make([]byte, cp.bs),
		off:   pageHeaderSize,
	}
	cp.cur = w
	return w, nil
}

// Commit writes the TOC, then the header that points at it, then syncs
// the device once. The device holds a complete snapshot only once
// Commit returns nil; publishing it (renaming a file into place) is the
// caller's job.
func (cp *Checkpoint) Commit() error {
	if cp.err != nil {
		return cp.err
	}
	if cp.done {
		return fmt.Errorf("snapshot: checkpoint already committed: %w", trerr.ErrBadConfig)
	}
	if cp.cur != nil {
		return fmt.Errorf("snapshot: stream %q still open at commit: %w", cp.cur.name, trerr.ErrBadConfig)
	}
	toc := cp.toc
	w, err := cp.Stream("", TypeTOC)
	if err != nil {
		return err
	}
	if err := encodeTOC(w, toc); err != nil {
		cp.err = err
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	hbuf := make([]byte, cp.bs)
	encodeHeader(hbuf, header{
		version:   FormatVersion,
		blockSize: uint32(cp.bs),
		tocHead:   w.head,
		tocLen:    uint64(w.n),
	})
	if err := cp.dev.Write(0, hbuf); err != nil {
		cp.err = err
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if err := blockio.SyncDevice(cp.dev); err != nil {
		cp.err = err
		return fmt.Errorf("snapshot: sync: %w", err)
	}
	cp.done = true
	return nil
}

// StreamWriter buffers one page at a time and chains full pages
// through the checkpoint's allocator. It implements io.Writer.
type StreamWriter struct {
	cp     *Checkpoint
	name   string
	typ    byte
	head   blockio.PageID
	curID  blockio.PageID
	buf    []byte
	off    int
	n      int64
	closed bool
}

// Write implements io.Writer.
func (w *StreamWriter) Write(p []byte) (int, error) {
	if w.cp.err != nil {
		return 0, w.cp.err
	}
	if w.closed {
		return 0, fmt.Errorf("snapshot: write to closed stream %q: %w", w.name, trerr.ErrBadConfig)
	}
	total := len(p)
	for len(p) > 0 {
		if w.off == len(w.buf) {
			if err := w.flush(true); err != nil {
				return total - len(p), err
			}
		}
		n := copy(w.buf[w.off:], p)
		w.off += n
		w.n += int64(n)
		p = p[n:]
	}
	return total, nil
}

// flush finalizes the current page — allocating and linking a
// successor when more data follows — and writes it out.
func (w *StreamWriter) flush(more bool) error {
	next := blockio.InvalidPage
	if more {
		id, err := w.cp.alloc()
		if err != nil {
			w.cp.err = err
			return err
		}
		next = id
	}
	encodePageHeader(w.buf, w.typ, w.off-pageHeaderSize, next)
	if err := w.cp.dev.Write(w.curID, w.buf); err != nil {
		w.cp.err = fmt.Errorf("snapshot: write page %d: %w", w.curID, err)
		return w.cp.err
	}
	w.curID = next
	w.off = pageHeaderSize
	return nil
}

// Close finalizes the last page and registers the stream in the
// checkpoint's TOC.
func (w *StreamWriter) Close() error {
	if w.cp.err != nil {
		return w.cp.err
	}
	if w.closed {
		return nil
	}
	if err := w.flush(false); err != nil {
		return err
	}
	w.closed = true
	w.cp.cur = nil
	w.cp.toc = append(w.cp.toc, StreamInfo{Name: w.name, Type: w.typ, Head: w.head, Len: w.n})
	return nil
}

// StreamReader reads a chained stream back, verifying each page's type
// tag and CRC before handing out its payload. It implements io.Reader;
// any integrity failure wraps trerr.ErrBadSnapshot.
type StreamReader struct {
	s         *Store
	typ       byte
	next      blockio.PageID
	remaining int64
	buf       []byte
	off       int
	avail     int
	read      int // pages read so far
}

// Read implements io.Reader.
func (r *StreamReader) Read(p []byte) (int, error) {
	if r.off == r.avail {
		if r.remaining == 0 {
			return 0, io.EOF
		}
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.buf[r.off:r.avail])
	r.off += n
	return n, nil
}

// fill loads and verifies the next page of the chain.
func (r *StreamReader) fill() error {
	if r.next == blockio.InvalidPage {
		return fmt.Errorf("snapshot: stream truncated with %d bytes missing: %w", r.remaining, trerr.ErrBadSnapshot)
	}
	if r.read == r.s.pages {
		return fmt.Errorf("snapshot: stream chain longer than the device (a cycle): %w", trerr.ErrBadSnapshot)
	}
	if r.buf == nil {
		r.buf = make([]byte, r.s.bs)
	}
	id := r.next
	if err := r.s.dev.Read(id, r.buf); err != nil {
		return fmt.Errorf("snapshot: read page %d: %v: %w", id, err, trerr.ErrBadSnapshot)
	}
	n, next, err := decodePageHeader(r.buf, r.typ)
	if err != nil {
		return fmt.Errorf("snapshot: page %d: %w", id, err)
	}
	if n == 0 || int64(n) > r.remaining {
		return fmt.Errorf("snapshot: page %d payload %d inconsistent with stream length: %w", id, n, trerr.ErrBadSnapshot)
	}
	r.read++
	r.remaining -= int64(n)
	r.next = next
	r.off = pageHeaderSize
	r.avail = pageHeaderSize + n
	return nil
}
