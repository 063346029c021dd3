// Package blockio is a miniature replica of the engine's buffer-pool
// shapes: a Device interface with the full method set (which switches
// the analyzer on), striped shard locks, and a pool-wide lock.
package blockio

import "sync"

type Device interface {
	BlockSize() int
	Read(id int, p []byte) error
	Write(id int, p []byte) error
	Alloc() (int, error)
	Close() error
}

type shard struct {
	mu    sync.Mutex
	slots map[int]int
}

type pool struct {
	mu     sync.Mutex
	dev    Device
	shards []shard
}

func (p *pool) shardFor(id int) *shard { return &p.shards[id%len(p.shards)] }
