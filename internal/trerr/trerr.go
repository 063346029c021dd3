// Package trerr holds the sentinel errors shared by every layer of
// the ranking stack. It is a leaf package (no dependencies) so the
// internal method implementations (internal/exact, internal/approx),
// the engine, and the public API can all wrap the same values and
// errors.Is works end-to-end. Package temporalrank re-exports these as
// ErrUnknownSeries, ErrKTooLarge, ErrNotMaterialized and
// ErrBadInterval; user code should match against those.
package trerr

import "errors"

var (
	// ErrUnknownSeries reports an object id outside [0, m).
	ErrUnknownSeries = errors.New("unknown series")

	// ErrKTooLarge reports a query k exceeding the kmax an approximate
	// index was built for.
	ErrKTooLarge = errors.New("k exceeds the index's kmax")

	// ErrNotMaterialized reports a per-object score request that an
	// approximate index cannot answer because the object is outside its
	// materialized top-kmax lists (no estimate is stored for it).
	ErrNotMaterialized = errors.New("score not materialized for this object")

	// ErrBadInterval reports a non-finite or inverted query interval.
	ErrBadInterval = errors.New("bad query interval")

	// ErrBadConfig reports constructor misuse: a nil DB or index, an
	// invalid shard count, an index built over a different DB, or a
	// partitioner that maps a series outside its shard table.
	ErrBadConfig = errors.New("bad configuration")

	// ErrNoInput reports a constructor given an empty dataset (no
	// series, no objects).
	ErrNoInput = errors.New("no input data")

	// ErrBadSnapshot reports a snapshot that cannot be restored: missing
	// or corrupt header, a page whose checksum does not match, a torn or
	// truncated file, or stream contents that fail validation. A device
	// that has never completed a checkpoint also reports this.
	ErrBadSnapshot = errors.New("bad snapshot")

	// ErrSnapshotVersion reports a structurally valid snapshot written
	// by a different (older or newer) format version of this library.
	ErrSnapshotVersion = errors.New("unsupported snapshot format version")

	// ErrShardUnavailable reports a distributed shard group with no
	// replica able to answer: every replica is down, still syncing, or
	// unreachable. The query may succeed on retry once a replica
	// recovers or catches up.
	ErrShardUnavailable = errors.New("shard unavailable")
)
