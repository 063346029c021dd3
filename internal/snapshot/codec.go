package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"temporalrank/internal/blockio"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// Writer/Reader are sticky-error little-endian codecs over a stream.
// They carry the flat encodings (TOC, dataset vertices, raw device
// images) where reflection-based encoders would dominate restore time;
// structured index metadata rides on encoding/gob on top of the same
// streams.

// Writer encodes primitive values into an io.Writer; the first error
// sticks and subsequent calls are no-ops.
type Writer struct {
	w       io.Writer
	scratch [8]byte
	err     error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (b *Writer) Err() error { return b.err }

func (b *Writer) write(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

// U8 writes one byte.
func (b *Writer) U8(v byte) { b.write([]byte{v}) }

// U32 writes a little-endian uint32.
func (b *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(b.scratch[:4], v)
	b.write(b.scratch[:4])
}

// U64 writes a little-endian uint64.
func (b *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(b.scratch[:8], v)
	b.write(b.scratch[:8])
}

// I64 writes a little-endian int64.
func (b *Writer) I64(v int64) { b.U64(uint64(v)) }

// F64 writes a float64 bit pattern.
func (b *Writer) F64(v float64) { b.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string (u16 length).
func (b *Writer) Str(s string) {
	if len(s) > math.MaxUint16 {
		if b.err == nil {
			b.err = fmt.Errorf("snapshot: string of %d bytes exceeds format limit", len(s))
		}
		return
	}
	binary.LittleEndian.PutUint16(b.scratch[:2], uint16(len(s)))
	b.write(b.scratch[:2])
	b.write([]byte(s))
}

// F64s writes a float slice (count-free: the caller encodes the count).
// Values are chunked through a page-sized scratch buffer so large
// vertex arrays do not pay one Write call per float.
func (b *Writer) F64s(xs []float64) {
	if b.err != nil {
		return
	}
	buf := blockio.GetPageBuf(blockio.DefaultBlockSize)
	defer blockio.PutPageBuf(buf)
	chunk := *buf
	off := 0
	for _, x := range xs {
		if off+8 > len(chunk) {
			b.write(chunk[:off])
			off = 0
		}
		binary.LittleEndian.PutUint64(chunk[off:off+8], math.Float64bits(x))
		off += 8
	}
	if off > 0 {
		b.write(chunk[:off])
	}
}

// Reader decodes what Writer encodes. Any IO or bounds failure sticks
// and wraps trerr.ErrBadSnapshot: a short read here means a truncated
// or inconsistent stream.
type Reader struct {
	r       io.Reader
	scratch [8]byte
	err     error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first decode error, if any.
func (b *Reader) Err() error { return b.err }

func (b *Reader) read(p []byte) bool {
	if b.err != nil {
		return false
	}
	if _, err := io.ReadFull(b.r, p); err != nil {
		b.err = fmt.Errorf("snapshot: short stream: %v: %w", err, trerr.ErrBadSnapshot)
		return false
	}
	return true
}

// U8 reads one byte.
func (b *Reader) U8() byte {
	if !b.read(b.scratch[:1]) {
		return 0
	}
	return b.scratch[0]
}

// U32 reads a little-endian uint32.
func (b *Reader) U32() uint32 {
	if !b.read(b.scratch[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(b.scratch[:4])
}

// U64 reads a little-endian uint64.
func (b *Reader) U64() uint64 {
	if !b.read(b.scratch[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(b.scratch[:8])
}

// I64 reads a little-endian int64.
func (b *Reader) I64() int64 { return int64(b.U64()) }

// F64 reads a float64.
func (b *Reader) F64() float64 { return math.Float64frombits(b.U64()) }

// Str reads a length-prefixed string.
func (b *Reader) Str() string {
	if !b.read(b.scratch[:2]) {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b.scratch[:2]))
	p := make([]byte, n)
	if !b.read(p) {
		return ""
	}
	return string(p)
}

// F64s reads n floats into a fresh slice. The slice starts at no more
// than maxPrealloc elements and grows as chunks arrive, so a corrupt
// count costs memory only for the bytes the stream really holds.
func (b *Reader) F64s(n int) []float64 {
	if b.err != nil {
		return nil
	}
	out := make([]float64, 0, min(n, maxPrealloc))
	buf := blockio.GetPageBuf(blockio.DefaultBlockSize)
	defer blockio.PutPageBuf(buf)
	chunk := *buf
	chunk = chunk[:len(chunk)-len(chunk)%8]
	for len(out) < n {
		want := min((n-len(out))*8, len(chunk))
		if !b.read(chunk[:want]) {
			return nil
		}
		for off := 0; off < want; off += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:off+8])))
		}
	}
	return out
}

// grow reads n bytes into a fresh slice. The slice starts at no more
// than one default block and doubles as bytes arrive, so a corrupt
// length costs memory only for the bytes the stream really holds.
func (b *Reader) grow(n int) []byte {
	buf := make([]byte, min(n, blockio.DefaultBlockSize))
	if !b.read(buf) {
		return nil
	}
	for len(buf) < n {
		got := len(buf)
		more := min(got, n-got)
		buf = slices.Grow(buf, more)[:got+more]
		if !b.read(buf[got:]) {
			return nil
		}
	}
	return buf
}

// count reads a u32 count and bounds-checks it against limit.
func (b *Reader) count(what string, limit int) int {
	n := b.U32()
	if b.err != nil {
		return 0
	}
	if int64(n) > int64(limit) {
		b.err = fmt.Errorf("snapshot: implausible %s count %d: %w", what, n, trerr.ErrBadSnapshot)
		return 0
	}
	return int(n)
}

// maxCount bounds every decoded count: far above any real dataset,
// far below anything that could be used to balloon allocations from a
// corrupt length field.
const maxCount = 1 << 30

// maxPrealloc caps the capacity a decoder reserves on the strength of
// a count alone (64 KiB of floats); larger collections grow as their
// elements are actually decoded.
const maxPrealloc = 1 << 13

// encodeTOC writes the table of contents.
func encodeTOC(w io.Writer, toc []StreamInfo) error {
	b := NewWriter(w)
	b.U32(uint32(len(toc)))
	for _, info := range toc {
		b.U8(info.Type)
		b.Str(info.Name)
		b.I64(int64(info.Head))
		b.I64(info.Len)
	}
	return b.Err()
}

// decodeTOC reads the table of contents.
func decodeTOC(r io.Reader) ([]StreamInfo, error) {
	b := NewReader(r)
	n := b.count("stream", 1<<16)
	out := make([]StreamInfo, 0, n)
	for i := 0; i < n; i++ {
		info := StreamInfo{Type: b.U8(), Name: b.Str(), Head: blockio.PageID(b.I64()), Len: b.I64()}
		if b.Err() != nil {
			return nil, b.Err()
		}
		if info.Len < 0 {
			return nil, fmt.Errorf("snapshot: negative stream length for %q: %w", info.Name, trerr.ErrBadSnapshot)
		}
		out = append(out, info)
	}
	return out, b.Err()
}

// WriteDataset serializes the dataset as per-series vertex arrays.
// Series IDs are positional (NewDataset enforces density), so only the
// vertex count and the two float arrays are stored per series; prefix
// sums are recomputed by NewSeries on restore.
func WriteDataset(w io.Writer, ds *tsdata.Dataset) error {
	b := NewWriter(w)
	series := ds.AllSeries()
	b.U32(uint32(len(series)))
	for _, s := range series {
		n := s.NumSegments() + 1
		b.U32(uint32(n))
		for j := 0; j < n; j++ {
			b.F64(s.VertexTime(j))
		}
		for j := 0; j < n; j++ {
			b.F64(s.VertexValue(j))
		}
	}
	return b.Err()
}

// ReadDataset reconstructs a Dataset. All series-level invariants
// (strictly increasing times, finite values) are re-validated by
// NewSeries, so a snapshot that decodes but violates them is rejected
// as ErrBadSnapshot rather than admitted as a malformed DB.
func ReadDataset(r io.Reader) (*tsdata.Dataset, error) {
	b := NewReader(r)
	m := b.count("series", maxCount)
	if b.Err() != nil {
		return nil, b.Err()
	}
	series := make([]*tsdata.Series, 0, min(m, maxPrealloc))
	for i := 0; i < m; i++ {
		n := b.count("vertex", maxCount)
		times := b.F64s(n)
		values := b.F64s(n)
		if b.Err() != nil {
			return nil, b.Err()
		}
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), times, values)
		if err != nil {
			return nil, fmt.Errorf("snapshot: series %d invalid: %v: %w", i, err, trerr.ErrBadSnapshot)
		}
		series = append(series, s)
	}
	if b.Err() != nil {
		return nil, b.Err()
	}
	ds, err := tsdata.NewDataset(series)
	if err != nil {
		return nil, fmt.Errorf("snapshot: dataset invalid: %v: %w", err, trerr.ErrBadSnapshot)
	}
	return ds, nil
}

// WriteDevicePages serializes a device's full page image: block size,
// page count, then every page's raw bytes in ascending ID order (IDs
// are implicit in that order). Index nodes embed PageIDs, so the image
// preserves the device's address space exactly — restore rebuilds
// nothing.
func WriteDevicePages(w io.Writer, dev blockio.Device) error {
	n := dev.NumPages()
	b := NewWriter(w)
	b.U32(uint32(dev.BlockSize()))
	b.I64(int64(n))
	if b.Err() != nil {
		return b.Err()
	}
	buf := blockio.GetPageBuf(dev.BlockSize())
	defer blockio.PutPageBuf(buf)
	for id := blockio.PageID(0); int(id) < n; id++ {
		if err := dev.Read(id, *buf); err != nil {
			return fmt.Errorf("snapshot: copy page %d: %w", id, err)
		}
		b.write(*buf)
	}
	return b.Err()
}

// ReadDevicePages reconstructs the device image into a fresh
// MemDevice with a clean IO ledger. Each page is read off the stream
// before it is allocated, and the one page buffer grows as the first
// page's bytes arrive, so a corrupt page count or block size costs
// memory only for the bytes the stream really holds.
func ReadDevicePages(r io.Reader) (*blockio.MemDevice, error) {
	b := NewReader(r)
	bs := int(b.U32())
	n := b.I64()
	if b.Err() != nil {
		return nil, b.Err()
	}
	if bs < MinBlockSize || bs > 1<<24 {
		return nil, fmt.Errorf("snapshot: implausible index block size %d: %w", bs, trerr.ErrBadSnapshot)
	}
	if n < 0 || n > maxCount {
		return nil, fmt.Errorf("snapshot: implausible device page count %d: %w", n, trerr.ErrBadSnapshot)
	}
	dev := blockio.NewMemDevice(bs)
	var page []byte
	for i := int64(0); i < n; i++ {
		if page == nil {
			page = b.grow(bs)
		} else {
			b.read(page)
		}
		if b.Err() != nil {
			return nil, b.Err()
		}
		id, err := dev.Alloc()
		if err != nil {
			return nil, err
		}
		if err := dev.Write(id, page); err != nil {
			return nil, err
		}
	}
	dev.ResetStats()
	return dev, nil
}
