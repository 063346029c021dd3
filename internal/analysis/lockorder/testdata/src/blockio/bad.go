package blockio

// Every rule violated once, directly or through a callee.

func (p *pool) allocUnderLock(id int) (int, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return p.dev.Alloc() // want `allocation-path device call p\.dev\.Alloc while lock sh\.mu is held`
}

func (p *pool) lockTwoShards(a, b int) {
	x := p.shardFor(a)
	y := p.shardFor(b)
	x.mu.Lock()
	y.mu.Lock() // want `acquiring y\.mu while x\.mu is already held`
	y.mu.Unlock()
	x.mu.Unlock()
}

func (p *pool) readUnderTwoLocks(id int, buf []byte) error {
	sh := p.shardFor(id)
	p.mu.Lock()
	sh.mu.Lock()
	err := p.dev.Read(id, buf) // want `data-path device call p\.dev\.Read while 2 locks are held`
	sh.mu.Unlock()
	p.mu.Unlock()
	return err
}

// reclaim is clean on its own; the violation appears at the locked
// call site, through its summary.
func (p *pool) reclaim() {
	p.dev.Close()
}

func (p *pool) evictLocked(id int) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p.reclaim() // want `call to reclaim, which reaches allocation-path device call p\.dev\.Close, while lock sh\.mu is held`
}

func (p *pool) lockShardZero() {
	p.shards[0].mu.Lock()
	p.shards[0].mu.Unlock()
}

func (p *pool) nestedLock(id int) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	p.lockShardZero() // want `call to lockShardZero, which acquires blockio\.shard\.mu lock p\.shards\[0\]\.mu, while sh\.mu is already held`
	sh.mu.Unlock()
}
