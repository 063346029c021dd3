package temporalrank

// hashPartition places a global series ID on one of shards: a
// splitmix64 fingerprint of the ID modulo the shard count. The paper's
// query family top-k(t1, t2, agg) decomposes over disjoint object
// partitions — a global top-k is a k-way merge of per-partition top-k
// answers — so any total, deterministic assignment is correct; the
// choice only affects balance. The fingerprint decorrelates placement
// from ID order, so datasets whose IDs encode ingest time or tenant
// grouping still spread evenly. Snapshots record the placement in each
// shard's manifest, so changing this function moves only series of
// clusters built afterwards.
func hashPartition(id, shards int) int {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}
