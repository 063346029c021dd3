package blockio

import "sync"

// Per-query page scratch buffers. Every index scan (interval-tree
// stabs, B+-tree sweeps, packed-list reads) needs one or two
// block-sized buffers that live exactly as long as the query; under
// concurrent serving load those allocations dominated the read path's
// allocs/op. GetPageBuf/PutPageBuf recycle them through a sync.Pool.
//
// Buffers of different block sizes share the pool: a pooled buffer
// whose capacity is too small for the requested size is dropped and a
// fresh one allocated, so mixed-block-size processes converge on the
// largest size in use.
var pagePool sync.Pool

// GetPageBuf returns a zero-filled-or-dirty scratch buffer of length
// size. The contents are unspecified — callers must treat it as
// uninitialized, exactly like a fresh read target. Release it with
// PutPageBuf when the scan completes.
func GetPageBuf(size int) *[]byte {
	if v := pagePool.Get(); v != nil {
		b := v.(*[]byte)
		if cap(*b) >= size {
			*b = (*b)[:size]
			return b
		}
	}
	b := make([]byte, size)
	return &b
}

// PutPageBuf returns a buffer obtained from GetPageBuf to the pool.
// The caller must not retain any reference into it afterwards.
func PutPageBuf(b *[]byte) {
	if b == nil || cap(*b) == 0 {
		return
	}
	pagePool.Put(b)
}
