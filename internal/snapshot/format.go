// Package snapshot implements the durable on-disk checkpoint format:
// a page-granular layout written through the blockio.Device
// abstraction, so the same code path serves memory-backed tests,
// fault-injection sweeps, and real files.
//
// # Layout
//
// A snapshot device holds exactly one snapshot, as an array of
// fixed-size pages:
//
//	page 0   header: format, block size, TOC root, CRC
//	page 1+  chained stream pages (manifest, dataset, indexes; TOC last)
//
// Every stream page carries a 16-byte header — type tag, payload length,
// CRC32-C of the payload, and the next page in its chain — so restore
// verifies integrity page by page and a torn or truncated file is
// rejected with a typed error rather than decoded into a wrong DB.
//
// # Commit
//
// A device is written once. Begin refuses a device that already holds
// pages; streams extend the device; Commit writes the TOC, then the
// header, then syncs once. Replacing a snapshot atomically is the
// caller's job: write the new one to a fresh device (a temporary file),
// and publish it only after Commit returns — by renaming the file over
// the old one and syncing the directory. A crash before the rename
// leaves the old snapshot untouched.
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
// pinned ε that never searches again. Version 5 holds one snapshot per
// device: one header page with no generation number. Version 6 stores
// EXACT2 (alone and inside APPX2+) as packed per-object runs whose state
// is only the first page; gob would drop a version-5 file's per-object
// tree metas and restore the runs from a page that holds tree nodes.
const FormatVersion = 6

// magic identifies a snapshot header page.
const magic = "TRSNAP01"

// MinBlockSize is the smallest page size the format supports: the
// 16-byte page header plus a useful payload.
const MinBlockSize = 64

// pageHeaderSize is the per-page overhead: type, flags, payload
// length, payload CRC32-C, next-page pointer.
const pageHeaderSize = 16

// Stream page-type tags. Each stream's pages carry its tag, so a chain
// that wanders into another stream's pages (a corruption mode CRCs
// alone cannot catch, since those pages are intact) is detected by tag
// mismatch.
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

// header is the decoded form of the header page.
//
//	[0:8]   magic "TRSNAP01"
//	[8:12]  format version (u32 LE)
//	[12:16] block size (u32 LE)
//	[16:24] TOC head page (i64 LE)
//	[24:32] TOC payload byte length (u64 LE)
//	[32:36] CRC32-C of bytes [0:32]
type header struct {
	version   uint32
	blockSize uint32
	tocHead   blockio.PageID
	tocLen    uint64
}

// headerSize is the encoded header length including its CRC.
const headerSize = 36

// encodeHeader writes h into buf (len >= headerSize; the remainder of
// the page is left as-is and ignored by decode).
func encodeHeader(buf []byte, h header) {
	copy(buf[0:8], magic)
	binary.LittleEndian.PutUint32(buf[8:12], h.version)
	binary.LittleEndian.PutUint32(buf[12:16], h.blockSize)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.tocHead))
	binary.LittleEndian.PutUint64(buf[24:32], h.tocLen)
	binary.LittleEndian.PutUint32(buf[32:36], crc32.Checksum(buf[0:32], castagnoli))
}

// decodeHeader parses the header page. A page that is not a (complete,
// untorn) snapshot header wraps trerr.ErrBadSnapshot; a header from
// another format version wraps trerr.ErrSnapshotVersion. The version is
// checked before the CRC because the CRC's place differs between
// versions.
func decodeHeader(buf []byte, blockSize int) (header, error) {
	if len(buf) < headerSize {
		return header{}, fmt.Errorf("snapshot: header short: %w", trerr.ErrBadSnapshot)
	}
	if string(buf[0:8]) != magic {
		return header{}, fmt.Errorf("snapshot: bad magic: %w", trerr.ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != FormatVersion {
		return header{}, fmt.Errorf("snapshot: format version %d (this build reads %d): %w",
			v, FormatVersion, trerr.ErrSnapshotVersion)
	}
	if got, want := crc32.Checksum(buf[0:32], castagnoli), binary.LittleEndian.Uint32(buf[32:36]); got != want {
		return header{}, fmt.Errorf("snapshot: header checksum mismatch (torn write): %w", trerr.ErrBadSnapshot)
	}
	h := header{
		version:   FormatVersion,
		blockSize: binary.LittleEndian.Uint32(buf[12:16]),
		tocHead:   blockio.PageID(binary.LittleEndian.Uint64(buf[16:24])),
		tocLen:    binary.LittleEndian.Uint64(buf[24:32]),
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
func decodePageHeader(buf []byte, wantType byte) (n int, next blockio.PageID, err error) {
	if buf[0] != wantType {
		return 0, blockio.InvalidPage, fmt.Errorf("snapshot: page type %d where %d expected: %w",
			buf[0], wantType, trerr.ErrBadSnapshot)
	}
	n = int(binary.LittleEndian.Uint16(buf[2:4]))
	if pageHeaderSize+n > len(buf) {
		return 0, blockio.InvalidPage, fmt.Errorf("snapshot: payload length %d exceeds page: %w", n, trerr.ErrBadSnapshot)
	}
	if got, want := crc32.Checksum(buf[pageHeaderSize:pageHeaderSize+n], castagnoli), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return 0, blockio.InvalidPage, fmt.Errorf("snapshot: page checksum mismatch: %w", trerr.ErrBadSnapshot)
	}
	return n, blockio.PageID(binary.LittleEndian.Uint64(buf[8:16])), nil
}
