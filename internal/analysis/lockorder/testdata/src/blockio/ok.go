package blockio

// The legal patterns the real buffer pool uses. None of these may be
// flagged.

// alloc runs dev.Alloc strictly before taking the shard lock — the
// sanctioned ordering.
func (p *pool) alloc() (int, error) {
	id, err := p.dev.Alloc()
	if err != nil {
		return 0, err
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	sh.slots[id] = 0
	sh.mu.Unlock()
	return id, nil
}

// read is the hit/miss shape: early unlock and return on the hit
// branch, a deferred unlock over the data-path fill on the miss branch
// — exactly one lock held at the dev.Read.
func (p *pool) read(id int, buf []byte) error {
	sh := p.shardFor(id)
	sh.mu.Lock()
	if slot, ok := sh.slots[id]; ok {
		_ = slot
		sh.mu.Unlock()
		return nil
	}
	defer sh.mu.Unlock()
	return p.dev.Read(id, buf)
}

// flush locks shards strictly sequentially: each iteration releases
// before the next acquires, so no two shard locks are ever held.
func (p *pool) flush(bufs [][]byte) error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if err := p.dev.Write(i, bufs[i]); err != nil {
			sh.mu.Unlock()
			return err
		}
		sh.mu.Unlock()
	}
	return nil
}

// background spawns a goroutine: it starts with none of this frame's
// locks held, so its device call is not a violation here.
func (p *pool) background(id int) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	go func() {
		p.dev.Close()
	}()
}
