package blockio

import (
	"math/rand"
	"testing"
)

// xorshift64 is the benchmark's page-picking RNG: a few ns per draw, so
// the measurement isolates the pool's locking instead of rand.Rand's
// own overhead.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

const (
	benchBlockSize = 128
	benchPages     = 2048
)

func benchPoolReads(b *testing.B, p Device) {
	ids := make([]PageID, benchPages)
	for i := range ids {
		id, err := p.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
		if err := p.Write(id, []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
	warm(b, p, ids)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xorshift64(rand.Int63() | 1)
		buf := make([]byte, benchBlockSize)
		for pb.Next() {
			if err := p.Read(ids[rng.next()%benchPages], buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// warm reads every page once, so a pool holds as many as fit.
func warm(b *testing.B, p Device, ids []PageID) {
	buf := make([]byte, benchBlockSize)
	for _, id := range ids {
		if err := p.Read(id, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferPoolParallel measures concurrent read throughput over
// one shared pool — the serving hot path — on the lock-striped CLOCK
// pool at its automatic stripe count. The working set is fully resident
// (the cache steady state this pool exists to serve), so the
// measurement isolates the hit path: a map lookup, a reference bit and
// the page copy, all under the page's shard lock.
func BenchmarkBufferPoolParallel(b *testing.B) {
	const capacity = benchPages // fully resident
	b.Run("sharded", func(b *testing.B) {
		benchPoolReads(b, NewBufferPool(NewMemDevice(benchBlockSize), capacity))
	})
}

// BenchmarkBufferPoolParallelMisses measures the miss path under
// concurrency: View/Release of random pages of a FileDevice whose
// working set is four times the pool, so about three in four views
// read the file. Misses read with no shard lock held and recycle the
// evicted frame's buffer, so they neither serialize on a shard nor
// allocate.
func BenchmarkBufferPoolParallelMisses(b *testing.B) {
	const pages = benchPages
	dev := newStampedFileDevice(b, pages, DefaultBlockSize)
	p := NewBufferPool(dev, pages/4)
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xorshift64(rand.Int63() | 1)
		for pb.Next() {
			v, err := p.View(PageID(rng.next() % pages))
			if err != nil {
				b.Fatal(err)
			}
			v.Release()
		}
	})
}

// BenchmarkBufferPoolParallelWrites exercises the write path: every
// Write reaches the device under its page's shard lock, and about half
// the pages are resident, so half the writes also refresh a frame.
func BenchmarkBufferPoolParallelWrites(b *testing.B) {
	const capacity = benchPages / 2
	b.Run("sharded", func(b *testing.B) {
		p := NewBufferPool(NewMemDevice(benchBlockSize), capacity)
		ids := make([]PageID, benchPages)
		for i := range ids {
			id, err := p.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		warm(b, p, ids)
		payload := make([]byte, benchBlockSize)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := xorshift64(rand.Int63() | 1)
			for pb.Next() {
				if err := p.Write(ids[rng.next()%benchPages], payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkMemDeviceViewParallel measures the in-memory read path every
// built or restored index serves from: View/Release of random pages of
// one shared MemDevice (4,096 pages of 4 KiB). A view is one atomic
// load of the page table and a bounds check, so parallel readers share
// no lock; counting it on the device's read counter is an atomic add on
// one shared word, and charging it to the call's IOCount a plain
// increment.
func BenchmarkMemDeviceViewParallel(b *testing.B) {
	const pages = 4096
	d := NewMemDevice(DefaultBlockSize)
	buf := make([]byte, DefaultBlockSize)
	for i := 0; i < pages; i++ {
		id, err := d.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		fillTestPage(buf, id, 1)
		if err := d.Write(id, buf); err != nil {
			b.Fatal(err)
		}
	}
	// device: each view counted on the device's shared counter; call:
	// views charged to a goroutine's own IOCount, folded every 100
	// views, about the pages one APPX2+ query views.
	for _, perCall := range []bool{false, true} {
		name := "device"
		if perCall {
			name = "call"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				rng := xorshift64(rand.Int63() | 1)
				var ios IOCount
				for n := 1; pb.Next(); n++ {
					var v PageView
					var err error
					if perCall {
						v, err = ios.View(d, PageID(rng.next()%pages))
						if n%100 == 0 {
							ios.Fold(d)
						}
					} else {
						v, err = d.View(PageID(rng.next() % pages))
					}
					if err != nil {
						b.Fatal(err)
					}
					v.Release()
				}
				ios.Fold(d)
			})
		})
	}
}

// BenchmarkFileDeviceViewParallel measures the read path every on-disk
// index serves from: View/Release of random pages of one shared
// FileDevice (4,096 pages of 4 KiB) whose file is mapped. Once the
// mapping is published, a view is one atomic load of it, a bounds
// check and the read counter, as on a MemDevice; the page bytes come
// from the OS page cache.
func BenchmarkFileDeviceViewParallel(b *testing.B) {
	const pages = 4096
	d := newStampedFileDevice(b, pages, DefaultBlockSize)
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xorshift64(rand.Int63() | 1)
		for pb.Next() {
			v, err := View(d, PageID(rng.next()%pages))
			if err != nil {
				b.Fatal(err)
			}
			v.Release()
		}
	})
}
