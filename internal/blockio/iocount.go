package blockio

// Per-call IO accounting.
//
// A device's Stats is a total over every caller, so the reads of one
// query cannot be read off it while other queries run, and counting
// each view on the device's shared counter costs a locked add per page.
// An IOCount is instead owned by one call: the call charges each page
// view of its traversal to its own count and adds the count to the
// device's total once, when it ends (Fold). The total a device reports
// once its calls have ended is the same either way.
//
// A count also binds to the device it views, once per call: the first
// view of a MemDevice (or ViewOnlyDevice) loads the device's published
// page table into the count, and the first view of a unix FileDevice
// loads its published mapping. Every later view of a page inside what
// the count bound is a bounds check and a slice expression, with no
// interface call and no atomic load; a page past it (allocated after
// the bind, or past the bound mapping) binds again. The other devices
// keep the per-view path.

// IOCount is the page reads of one call, on the paper's cost model: a
// plain counter owned by the call, never shared between goroutines.
// The zero value is an empty, unbound count. A nil *IOCount charges
// every view to the device as it happens, as the package-level View
// does.
type IOCount struct {
	reads   uint64 // reads charged to the call
	counted uint64 // of reads, those a device counter has already seen
	// dev is the device the count is bound to: nil, a *MemDevice, a
	// ViewOnlyDevice or a *FileDevice, each a comparable type, so
	// comparing it with any Device cannot panic.
	dev Device
	binding
}

// binding is what a count loads of its device at the bind: a
// MemDevice's page table, or a FileDevice's mapping, of which the first
// mpages pages lie in the file.
type binding struct {
	pages  [][]byte
	m      *mapping
	mpages int
	bs     int
}

// binder is implemented by the devices an IOCount binds to (MemDevice,
// and FileDevice on unix systems). bind returns what a count keeps of
// the device, once page id lies inside it, or the error a view of id
// would return.
type binder interface {
	bind(id PageID) (binding, error)
}

// Reads returns the page reads charged to the call so far.
func (c *IOCount) Reads() uint64 { return c.reads }

// View returns a read-only view of page id on d, as the package-level
// View does, charging the read to c:
//   - a MemDevice, a ViewOnlyDevice, or a FileDevice on a unix system
//     binds c (see IOCount) and serves the view from what c bound,
//     without touching its counter; Fold adds it later;
//   - a FaultDevice spends one operation of its budget, then the view is
//     taken on its inner device;
//   - a BufferPool hit is no read, and a miss is one read, which the
//     pool's device counts as it happens;
//   - any other device serves the view through its own View, which
//     counts it there, and c records one read.
//
// A count bound before its device's Close keeps serving the pages it
// bound, as a view taken before Close keeps reading its page.
func (c *IOCount) View(d Device, id PageID) (PageView, error) {
	if c != nil && c.dev == d && uint64(id) < uint64(len(c.pages)) {
		c.reads++
		return PageView{data: c.pages[id]}, nil
	}
	return c.view(d, id)
}

// view is View past its MemDevice fast path.
func (c *IOCount) view(d Device, id PageID) (PageView, error) {
	if c == nil {
		return View(d, id)
	}
	if c.m != nil && c.dev == d && uint64(id) < uint64(c.mpages) {
		c.reads++
		return c.fileView(id), nil
	}
	switch dd := d.(type) {
	case *MemDevice, ViewOnlyDevice, *FileDevice:
		// Only these types bind (not a foreign type embedding one of
		// them, which need not be comparable). FileDevice binds on unix
		// systems only.
		b, ok := d.(binder)
		if !ok {
			break
		}
		bd, err := b.bind(id)
		if err != nil {
			return PageView{}, err
		}
		c.dev, c.binding = d, bd
		c.reads++
		if c.m != nil {
			return c.fileView(id), nil
		}
		return PageView{data: c.pages[id]}, nil
	case *FaultDevice:
		if err := dd.take(); err != nil {
			return PageView{}, err
		}
		return c.View(dd.inner, id)
	case *BufferPool:
		v, miss, err := dd.view(id)
		if miss && err == nil {
			c.reads++
			c.counted++
		}
		return v, err
	}
	v, err := View(d, id)
	if err == nil {
		c.reads++
		c.counted++
	}
	return v, err
}

// fileView is the view of page id, which lies inside b's mapping.
func (b *binding) fileView(id PageID) PageView {
	off := int(id) * b.bs
	return PageView{data: b.m.data[off : off+b.bs : off+b.bs], m: b.m}
}

// Fold adds the reads charged to c that no device counter has seen to
// the total of d, the device c's views were taken on, with one atomic
// add. A call folds its count once, when it ends; folding again adds
// only what was charged since. A ResetStats that runs while the call is
// in flight does not reach its count: Fold adds all of it, the reads
// before the reset too.
func (c *IOCount) Fold(d Device) {
	if n := c.reads - c.counted; n > 0 {
		addReads(d, n)
		c.counted = c.reads
	}
}

// readAdder is implemented by the devices a Fold can reach with reads
// to add: MemDevice, FileDevice, and FaultDevice, which passes them to
// its inner device. (A view through a BufferPool or any other device is
// counted as it happens, so it leaves nothing to add.)
type readAdder interface {
	addReads(n uint64)
}

// addReads adds n reads to d's total.
func addReads(d Device, n uint64) {
	if a, ok := d.(readAdder); ok {
		a.addReads(n)
	}
}
