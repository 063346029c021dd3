package snapshot

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"temporalrank/internal/blockio"
	"temporalrank/internal/trerr"
)

// StreamInfo describes one named stream of the live generation.
type StreamInfo struct {
	Name string
	Type byte
	Head blockio.PageID
	Len  int64
}

// Store mediates all access to one snapshot device: it owns the shadow
// header pair, the live generation's page set, and the derived free
// set new checkpoints draw from. A Store is single-writer: callers
// serialize Begin/Commit externally (the public Checkpoint APIs hold
// the DB/Planner locks across the whole operation anyway).
type Store struct {
	dev blockio.Device
	bs  int

	gen  uint64
	slot int // header slot of the live generation; -1 when none
	verr error
	// degraded: a header decoded but its chains did not — Load fails,
	// and the next checkpoint reclaims every data page.
	degraded bool
	toc      []StreamInfo
	live     map[blockio.PageID]struct{}
}

// Open reads the shadow headers (when present) and walks the live
// generation's chains to learn which pages it owns. A fresh or
// garbage device yields an empty store: Err reports ErrBadSnapshot
// (nothing to restore) but Begin still works, so the same call serves
// first-checkpoint and re-checkpoint paths. The one exception is a
// device holding a *newer-format* snapshot: Open succeeds but both
// Err and Begin report ErrSnapshotVersion, so an old binary neither
// misreads nor clobbers it.
func Open(dev blockio.Device) (*Store, error) {
	bs := dev.BlockSize()
	if bs < MinBlockSize {
		return nil, fmt.Errorf("snapshot: block size %d below minimum %d: %w", bs, MinBlockSize, trerr.ErrBadConfig)
	}
	s := &Store{dev: dev, bs: bs, slot: -1, live: make(map[blockio.PageID]struct{})}
	numPages := dev.NumPages()
	if numPages == 0 {
		return s, nil
	}
	var (
		best     header
		bestSlot = -1
		verr     error
	)
	buf := make([]byte, bs)
	for slot := 0; slot < headerSlots && slot < numPages; slot++ {
		if err := dev.Read(blockio.PageID(slot), buf); err != nil {
			return nil, fmt.Errorf("snapshot: read header slot %d: %w", slot, err)
		}
		h, err := decodeHeader(buf, bs)
		if err != nil {
			if isVersionErr(err) {
				verr = err
			}
			continue
		}
		if bestSlot == -1 || h.gen > best.gen {
			best, bestSlot = h, slot
		}
	}
	if bestSlot == -1 {
		// No readable generation. If a newer-format header is present,
		// refuse to treat the device as free space.
		s.verr = verr
		return s, nil
	}
	s.gen, s.slot = best.gen, bestSlot
	if err := s.loadGeneration(best); err != nil {
		// The header committed but its chains are unreadable (bit rot or
		// an externally truncated file). Nothing restorable remains;
		// remember why so Load can report it, and let the next
		// checkpoint start from a clean slate.
		s.degraded = true
		s.toc = nil
		s.live = make(map[blockio.PageID]struct{})
	}
	return s, nil
}

func isVersionErr(err error) bool { return errors.Is(err, trerr.ErrSnapshotVersion) }

// loadGeneration walks the TOC and every stream chain, populating
// s.toc and s.live.
func (s *Store) loadGeneration(h header) error {
	tocR := &StreamReader{
		s:         s,
		typ:       TypeTOC,
		next:      h.tocHead,
		remaining: int64(h.tocLen),
		visit:     s.visitLive,
	}
	toc, err := decodeTOC(tocR)
	if err != nil {
		return err
	}
	for _, info := range toc {
		r := &StreamReader{s: s, typ: info.Type, next: info.Head, remaining: info.Len, visit: s.visitLive}
		if _, err := io.Copy(io.Discard, r); err != nil {
			return fmt.Errorf("snapshot: stream %q: %w", info.Name, err)
		}
	}
	s.toc = toc
	return nil
}

func (s *Store) visitLive(id blockio.PageID) { s.live[id] = struct{}{} }

// Generation returns the live generation number (0 when none).
func (s *Store) Generation() uint64 { return s.gen }

// Err reports whether the store holds a restorable generation: nil
// when it does, ErrSnapshotVersion for a newer-format snapshot, and
// ErrBadSnapshot otherwise (fresh device, torn first checkpoint, or
// corrupt chains).
func (s *Store) Err() error {
	switch {
	case s.verr != nil:
		return s.verr
	case s.slot == -1:
		return fmt.Errorf("snapshot: no completed checkpoint on device: %w", trerr.ErrBadSnapshot)
	case s.degraded:
		return fmt.Errorf("snapshot: generation %d has unreadable pages: %w", s.gen, trerr.ErrBadSnapshot)
	}
	return nil
}

// Streams lists the live generation's streams in checkpoint order.
func (s *Store) Streams() ([]StreamInfo, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	out := make([]StreamInfo, len(s.toc))
	copy(out, s.toc)
	return out, nil
}

// OpenStream returns a verifying reader over the named stream of the
// live generation.
func (s *Store) OpenStream(name string, wantType byte) (io.Reader, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	for _, info := range s.toc {
		if info.Name != name {
			continue
		}
		if info.Type != wantType {
			return nil, fmt.Errorf("snapshot: stream %q has type %d, want %d: %w",
				name, info.Type, wantType, trerr.ErrBadSnapshot)
		}
		return &StreamReader{s: s, typ: info.Type, next: info.Head, remaining: info.Len}, nil
	}
	return nil, fmt.Errorf("snapshot: stream %q not in snapshot: %w", name, trerr.ErrBadSnapshot)
}

// Checkpoint is one in-progress generation write. Streams are written
// one at a time; Commit atomically publishes them as the new live
// generation. On any error the caller abandons the Checkpoint — the
// device still holds the previous generation, and a later Begin
// reclaims whatever the failed attempt wrote.
type Checkpoint struct {
	s       *Store
	free    []blockio.PageID // reusable pages, ascending
	freeIdx int
	pages   []blockio.PageID // pages written by this checkpoint
	toc     []StreamInfo
	cur     *StreamWriter
	err     error
	done    bool
}

// Begin starts a new checkpoint. The header pair is allocated on a
// fresh device, and the free set is derived as "every data page the
// live generation does not own" — which transparently reclaims dead
// generations and the debris of interrupted checkpoints.
func (s *Store) Begin() (*Checkpoint, error) {
	if s.verr != nil {
		return nil, fmt.Errorf("snapshot: refusing to overwrite newer-format snapshot: %w", s.verr)
	}
	for s.dev.NumPages() < headerSlots {
		id, err := s.dev.Alloc()
		if err != nil {
			return nil, fmt.Errorf("snapshot: allocate header page: %w", err)
		}
		if int(id) >= headerSlots {
			return nil, fmt.Errorf("snapshot: device handed page %d for a header slot: %w", id, trerr.ErrBadConfig)
		}
	}
	cp := &Checkpoint{s: s}
	numPages := s.dev.NumPages()
	for id := blockio.PageID(headerSlots); int(id) < numPages; id++ {
		if _, ok := s.live[id]; !ok {
			cp.free = append(cp.free, id)
		}
	}
	sort.Slice(cp.free, func(i, j int) bool { return cp.free[i] < cp.free[j] })
	return cp, nil
}

// alloc hands out the next page for this checkpoint: reuse before
// extension.
func (cp *Checkpoint) alloc() (blockio.PageID, error) {
	if cp.freeIdx < len(cp.free) {
		id := cp.free[cp.freeIdx]
		cp.freeIdx++
		return id, nil
	}
	id, err := cp.s.dev.Alloc()
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
		buf:   make([]byte, cp.s.bs),
		off:   pageHeaderSize,
	}
	cp.cur = w
	return w, nil
}

// Commit writes the TOC, syncs the data pages, publishes the new
// header into the standby slot, and syncs again — the two barriers of
// the shadow-header protocol. On success the store's live generation
// advances; on failure the previous generation remains the live one.
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
	tocHead, tocLen := w.head, w.n
	if err := w.Close(); err != nil {
		return err
	}
	cp.toc = toc // drop the TOC's own self-entry appended by Close
	// Barrier 1: every data page durable before the header points at it.
	if err := blockio.SyncDevice(cp.s.dev); err != nil {
		cp.err = err
		return fmt.Errorf("snapshot: sync data pages: %w", err)
	}
	s := cp.s
	newGen := s.gen + 1
	slot := 0
	if s.slot == 0 {
		slot = 1
	}
	hbuf := make([]byte, s.bs)
	encodeHeader(hbuf, header{
		version:   FormatVersion,
		blockSize: uint32(s.bs),
		gen:       newGen,
		tocHead:   tocHead,
		tocLen:    uint64(tocLen),
	})
	if err := s.dev.Write(blockio.PageID(slot), hbuf); err != nil {
		cp.err = err
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	// Barrier 2: the new generation is live only once its header is on
	// stable storage.
	if err := blockio.SyncDevice(s.dev); err != nil {
		cp.err = err
		return fmt.Errorf("snapshot: sync header: %w", err)
	}
	s.gen, s.slot = newGen, slot
	s.toc = toc
	s.degraded = false
	s.live = make(map[blockio.PageID]struct{}, len(cp.pages))
	for _, id := range cp.pages {
		s.live[id] = struct{}{}
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
	if err := w.cp.s.dev.Write(w.curID, w.buf); err != nil {
		w.cp.err = fmt.Errorf("snapshot: write page %d: %w", w.curID, err)
		return w.cp.err
	}
	w.cp.pages = append(w.cp.pages, w.curID)
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
	visit     func(blockio.PageID) // optional: live-set collection during Open
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
	if r.visit != nil {
		r.visit(id)
	}
	r.remaining -= int64(n)
	r.next = next
	r.off = pageHeaderSize
	r.avail = pageHeaderSize + n
	return nil
}
