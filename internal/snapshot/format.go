// Package snapshot implements the durable on-disk checkpoint format:
// a page-granular layout written through the blockio.Device
// abstraction, so the same code path serves memory-backed tests,
// fault-injection sweeps, and real files (optionally behind a
// BufferPool).
//
// # Layout
//
// A snapshot device is an array of fixed-size pages:
//
//	page 0   header slot A ┐ shadow pair: the slot with the highest
//	page 1   header slot B ┘ valid generation is the live checkpoint
//	page 2+  chained stream pages (TOC, dataset, index meta, index pages)
//
// Every data page carries a 16-byte header — type tag, payload length,
// CRC32-C of the payload, and the next page in its chain — so restore
// verifies integrity page by page and a torn or truncated file is
// rejected with a typed error rather than decoded into a wrong DB.
//
// # Commit protocol
//
// A checkpoint never writes into pages referenced by the live
// generation: writers draw from the derived free set (every data page
// on the device that the live generation does not own) and extend the
// device when that runs out. Commit then syncs the data pages, writes
// the new header — generation+1, pointing at the new TOC — into the
// *standby* slot, and syncs again. A crash at any operation leaves the
// previous generation fully intact: either the old header still has
// the highest valid generation, or the new header is torn and fails
// its CRC, falling back to the old slot. Space from dead generations
// is reclaimed by the next checkpoint's free-set derivation, so the
// file converges to roughly two generations' footprint.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"temporalrank/internal/blockio"
	"temporalrank/internal/trerr"
)

// FormatVersion is the on-disk format generation this package reads
// and writes. A valid header with a different version fails with
// trerr.ErrSnapshotVersion. Version 2 dropped the index states' update
// bookkeeping (EXACT3's append overlay, the approximate methods'
// rebuild counters); gob would silently skip those fields in a
// version-1 file and restore an EXACT3 without its appended segments.
// Version 3 dropped the freed-slot list from index page images (devices
// no longer free pages), so a page image is its block size, page count
// and pages. Version 4 added the last ε search (mass and target r) to
// approximate index states; a version-3 file would restore them with a
// pinned ε that never searches again.
const FormatVersion = 4

// magic identifies a snapshot header page.
const magic = "TRSNAP01"

// MinBlockSize is the smallest page size the format supports: the
// 16-byte page header plus a useful payload.
const MinBlockSize = 64

// pageHeaderSize is the per-page overhead: type, flags, payload
// length, payload CRC32-C, next-page pointer.
const pageHeaderSize = 16

// headerSlots is the number of shadow header pages (slots 0 and 1).
const headerSlots = 2

// Stream page-type tags. Each stream's pages carry its tag, so a chain
// that wanders into another stream's pages (a corruption mode CRCs
// alone cannot catch when stale pages hold valid old content) is
// detected by tag mismatch.
const (
	// TypeTOC tags the table-of-contents stream (written last, rooted
	// in the header).
	TypeTOC byte = 1
	// TypeManifest tags the top-level manifest stream.
	TypeManifest byte = 2
	// TypeDataset tags the serialized dataset vertices.
	TypeDataset byte = 3
	// TypeIndexMeta tags an index's typed metadata (tree roots,
	// breakpoint tables, build options).
	TypeIndexMeta byte = 4
	// TypeIndexPages tags an index's raw device-page image.
	TypeIndexPages byte = 5
	// TypeShardMeta tags a cluster shard's placement metadata.
	TypeShardMeta byte = 6
)

// castagnoli is the CRC32-C table shared by header and page checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded form of a header slot page.
//
//	[0:8]   magic "TRSNAP01"
//	[8:12]  format version (u32 LE)
//	[12:16] block size (u32 LE)
//	[16:24] generation (u64 LE)
//	[24:32] TOC head page (i64 LE)
//	[32:40] TOC payload byte length (u64 LE)
//	[40:44] CRC32-C of bytes [0:40]
type header struct {
	version   uint32
	blockSize uint32
	gen       uint64
	tocHead   blockio.PageID
	tocLen    uint64
}

// headerSize is the encoded header length including its CRC.
const headerSize = 44

// encodeHeader writes h into buf (len >= headerSize; the remainder of
// the page is left as-is and ignored by decode).
func encodeHeader(buf []byte, h header) {
	copy(buf[0:8], magic)
	binary.LittleEndian.PutUint32(buf[8:12], h.version)
	binary.LittleEndian.PutUint32(buf[12:16], h.blockSize)
	binary.LittleEndian.PutUint64(buf[16:24], h.gen)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.tocHead))
	binary.LittleEndian.PutUint64(buf[32:40], h.tocLen)
	binary.LittleEndian.PutUint32(buf[40:44], crc32.Checksum(buf[0:40], castagnoli))
}

// decodeHeader parses a header slot. A page that is not a (complete,
// untorn) snapshot header wraps trerr.ErrBadSnapshot; a valid header
// from an incompatible format wraps trerr.ErrSnapshotVersion.
func decodeHeader(buf []byte, blockSize int) (header, error) {
	if len(buf) < headerSize {
		return header{}, fmt.Errorf("snapshot: header short: %w", trerr.ErrBadSnapshot)
	}
	if string(buf[0:8]) != magic {
		return header{}, fmt.Errorf("snapshot: bad magic: %w", trerr.ErrBadSnapshot)
	}
	if got, want := crc32.Checksum(buf[0:40], castagnoli), binary.LittleEndian.Uint32(buf[40:44]); got != want {
		return header{}, fmt.Errorf("snapshot: header checksum mismatch (torn write): %w", trerr.ErrBadSnapshot)
	}
	h := header{
		version:   binary.LittleEndian.Uint32(buf[8:12]),
		blockSize: binary.LittleEndian.Uint32(buf[12:16]),
		gen:       binary.LittleEndian.Uint64(buf[16:24]),
		tocHead:   blockio.PageID(binary.LittleEndian.Uint64(buf[24:32])),
		tocLen:    binary.LittleEndian.Uint64(buf[32:40]),
	}
	if h.version != FormatVersion {
		return header{}, fmt.Errorf("snapshot: format version %d (this build reads %d): %w",
			h.version, FormatVersion, trerr.ErrSnapshotVersion)
	}
	if int(h.blockSize) != blockSize {
		return header{}, fmt.Errorf("snapshot: written with block size %d, opened with %d: %w",
			h.blockSize, blockSize, trerr.ErrBadSnapshot)
	}
	return h, nil
}

// encodePageHeader finalizes a stream page in place: buf is a full
// page whose payload occupies [pageHeaderSize : pageHeaderSize+n).
func encodePageHeader(buf []byte, typ byte, n int, next blockio.PageID) {
	buf[0] = typ
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:4], uint16(n))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[pageHeaderSize:pageHeaderSize+n], castagnoli))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(next))
}

// decodePageHeader validates one stream page — type tag, payload
// bounds, payload CRC — and returns its payload length and successor.
//
//tr:hotpath
func decodePageHeader(buf []byte, wantType byte) (n int, next blockio.PageID, err error) {
	if buf[0] != wantType {
		//tr:alloc-ok corrupt-page error path; the clean path below allocates nothing
		return 0, blockio.InvalidPage, fmt.Errorf("snapshot: page type %d where %d expected: %w",
			buf[0], wantType, trerr.ErrBadSnapshot)
	}
	n = int(binary.LittleEndian.Uint16(buf[2:4]))
	if pageHeaderSize+n > len(buf) {
		//tr:alloc-ok corrupt-page error path
		return 0, blockio.InvalidPage, fmt.Errorf("snapshot: payload length %d exceeds page: %w", n, trerr.ErrBadSnapshot)
	}
	if got, want := crc32.Checksum(buf[pageHeaderSize:pageHeaderSize+n], castagnoli), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		//tr:alloc-ok corrupt-page error path
		return 0, blockio.InvalidPage, fmt.Errorf("snapshot: page checksum mismatch: %w", trerr.ErrBadSnapshot)
	}
	return n, blockio.PageID(binary.LittleEndian.Uint64(buf[8:16])), nil
}
