package temporalrank

import "temporalrank/internal/trerr"

// The package's typed sentinel errors. Every layer — the brute-force
// DB, the eight index implementations, the Planner, and the cluster
// coordinators — wraps these values, so callers can classify failures with
// errors.Is regardless of which component produced them:
//
//	_, err := idx.Score(id, t1, t2)
//	switch {
//	case errors.Is(err, temporalrank.ErrNotMaterialized):
//	    // fall back to db.Score for an exact answer
//	case errors.Is(err, temporalrank.ErrUnknownSeries):
//	    // 404
//	}
var (
	// ErrUnknownSeries reports an object id outside [0, NumSeries()).
	ErrUnknownSeries = trerr.ErrUnknownSeries

	// ErrKTooLarge reports a query k exceeding the KMax an approximate
	// index was built for (exact indexes accept any k).
	ErrKTooLarge = trerr.ErrKTooLarge

	// ErrNotMaterialized reports a per-object Score request that an
	// approximate index cannot answer: the object lies outside the
	// materialized top-KMax lists, so no estimate exists for it. The
	// caller can retry against an exact index or DB.Score.
	ErrNotMaterialized = trerr.ErrNotMaterialized

	// ErrBadInterval reports a non-finite, inverted, or (for AggAvg)
	// zero-width query interval.
	ErrBadInterval = trerr.ErrBadInterval

	// ErrBadConfig reports constructor misuse: a nil DB or index, an
	// invalid shard count, an index built over a different DB, or a
	// partitioner that maps a series outside its shard table.
	ErrBadConfig = trerr.ErrBadConfig

	// ErrNoInput reports a constructor given an empty dataset — no
	// series (NewDB, NewCluster) or no sampled objects
	// (NewDBFromSamples, NewClusterFromSamples).
	ErrNoInput = trerr.ErrNoInput

	// ErrBadSnapshot reports a snapshot device that cannot be restored:
	// no completed checkpoint, a corrupt or torn header, a page whose
	// CRC does not match, a truncated file, or stream contents that fail
	// validation. OpenSnapshot and OpenClusterSnapshot wrap it.
	ErrBadSnapshot = trerr.ErrBadSnapshot

	// ErrSnapshotVersion reports a structurally valid snapshot written
	// by a different (older or newer) snapshot format version.
	ErrSnapshotVersion = trerr.ErrSnapshotVersion

	// ErrShardUnavailable reports a RemoteCluster shard group with no
	// replica able to answer — every replica is down, unreachable, or
	// still bootstrapping from a snapshot. Transient by design: the
	// same query can succeed once one replica recovers.
	ErrShardUnavailable = trerr.ErrShardUnavailable
)
