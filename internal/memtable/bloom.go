package memtable

import "sync/atomic"

// bloomWords is the fixed filter size in 64-bit words: 1 KiB per table,
// 8192 bits. With two probes per key the false-positive rate stays
// under ~1% up to roughly a thousand distinct series per table, and a
// false positive only costs one stripe map lookup.
const bloomWords = 128

// bloom is a fixed-size concurrent bloom filter over series ids. Adds
// and queries are lock-free; a query that races an add may miss the key
// (callers already order acknowledgement after the add).
type bloom struct {
	words []atomic.Uint64
}

func (b *bloom) init() {
	b.words = make([]atomic.Uint64, bloomWords)
}

// mix is splitmix64's finalizer: a cheap, well-distributed hash for
// small integer keys.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// probes derives two independent bit positions for key.
func probes(key uint64) (uint64, uint64) {
	h := mix(key + 0x9e3779b97f4a7c15)
	const bits = bloomWords * 64
	return h % bits, (h >> 32) % bits
}

func (b *bloom) add(key uint64) {
	p1, p2 := probes(key)
	b.words[p1/64].Or(1 << (p1 % 64))
	b.words[p2/64].Or(1 << (p2 % 64))
}

func (b *bloom) mayContain(key uint64) bool {
	p1, p2 := probes(key)
	if b.words[p1/64].Load()&(1<<(p1%64)) == 0 {
		return false
	}
	return b.words[p2/64].Load()&(1<<(p2%64)) != 0
}
