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

// IOCount is the page reads of one call, on the paper's cost model: a
// plain counter owned by the call, never shared between goroutines.
// The zero value is an empty count. A nil *IOCount charges every view
// to the device as it happens, as the package-level View does.
type IOCount struct {
	reads   uint64 // reads charged to the call
	counted uint64 // of reads, those a device counter has already seen
}

// Reads returns the page reads charged to the call so far.
func (c *IOCount) Reads() uint64 { return c.reads }

// View returns a read-only view of page id on d, as the package-level
// View does, charging the read to c:
//   - a MemDevice, or a FileDevice on a unix system, serves the view
//     without touching its counter; Fold adds it later;
//   - a FaultDevice spends one operation of its budget, then the view is
//     taken on its inner device;
//   - a BufferPool hit is no read, and a miss is one read, which the
//     pool's device counts as it happens;
//   - any other device serves the view through its own View, which
//     counts it there, and c records one read.
func (c *IOCount) View(d Device, id PageID) (PageView, error) {
	if c == nil {
		return View(d, id)
	}
	switch d := d.(type) {
	case uncountedViewer:
		v, err := d.viewUncounted(id)
		if err == nil {
			c.reads++
		}
		return v, err
	case *FaultDevice:
		if err := d.take(); err != nil {
			return PageView{}, err
		}
		return c.View(d.inner, id)
	case *BufferPool:
		v, miss, err := d.view(id)
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

// uncountedViewer is implemented by the devices that count reads
// themselves (MemDevice, and FileDevice on unix systems): viewUncounted
// is their View without the count, for IOCount.View to charge to a
// call.
type uncountedViewer interface {
	viewUncounted(id PageID) (PageView, error)
}

// readAdder is implemented by the devices a Fold can reach with reads
// to add: the uncountedViewers, and FaultDevice, which passes them to
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
