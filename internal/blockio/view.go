package blockio

// Zero-copy page views.
//
// The copy-based Device.Read contract charges every page access a full
// block memcpy into caller scratch, even when the page is already
// resident (a buffer-pool hit, a MemDevice page). A PageView instead
// lends the caller the resident bytes themselves: read-only, valid
// until Release. Post-build index traversals decode fields in place
// from the view, so a warm top-k query does no page copies at all.
//
// Lifetime discipline. A view must be released exactly once, promptly
// (a buffer-pool view pins its frame, and a pinned frame is exempt
// from CLOCK eviction — holding views across long pauses shrinks the
// effective cache). Views are read-only: writing through Data() is a
// data race against every other reader of the page. A MemDevice view
// takes no lock (it reads the atomically published page table) and
// aliases bytes that Write overwrites in place; a FileDevice view is
// likewise a lock-free slice of the file's shared mapping, which a
// Write to the file changes in place. So the caller must serialize
// views against writers of the same page — the root package's indexes
// do by construction: every page is written while the index is built,
// before any query can see it, and never again.

// Viewer is implemented by devices that can serve a page as an
// in-place, read-only view instead of a copy. View counts toward the
// device's read statistics exactly as Read does, so IO accounting is
// unchanged by the zero-copy path.
type Viewer interface {
	View(id PageID) (PageView, error)
}

// PageView is a read-only window onto one resident page. The zero
// value is released. Obtain one from View (or a Viewer directly) and
// release it exactly once; Release is idempotent.
type PageView struct {
	data []byte
	sh   *poolShard // non-nil: the view pins a buffer-pool frame
	slot int
	buf  *[]byte  // non-nil: data is a pooled copy (fallback path, or a pool fill left uncached)
	m    *mapping // non-nil: data lies in a FileDevice mapping, kept mapped while the view holds it
}

// Data returns the page bytes. The slice is valid until Release and
// must not be written to.
func (v *PageView) Data() []byte { return v.data }

// Release returns the view's resources: a buffer-pool view unpins its
// frame, a fallback view returns its scratch buffer to the page pool,
// and a FileDevice view drops its hold on the file mapping.
// Idempotent; the view must not be used afterwards.
func (v *PageView) Release() {
	if v.sh != nil {
		sh := v.sh
		v.sh = nil
		sh.mu.Lock()
		// Re-derive the frame from (shard, slot): the slot assignment is
		// stable while pinned (freeSlotLocked never reclaims a slot with
		// pins > 0).
		sh.ring[v.slot].pins--
		sh.mu.Unlock()
	}
	if v.buf != nil {
		PutPageBuf(v.buf)
		v.buf = nil
	}
	v.data, v.m = nil, nil
}

// View returns a read-only view of page id on d. Devices implementing
// Viewer serve it zero-copy; for any other device the view is a pooled
// copy (one Read into pool scratch), so callers can use the view API
// uniformly and still release correctly.
func View(d Device, id PageID) (PageView, error) {
	if v, ok := d.(Viewer); ok {
		return v.View(id)
	}
	return copyView(d, id)
}

// copyView is the universal fallback: materialize the page into pooled
// scratch and wrap it as a view that returns the scratch on Release.
func copyView(d Device, id PageID) (PageView, error) {
	buf := GetPageBuf(d.BlockSize())
	if err := d.Read(id, *buf); err != nil {
		PutPageBuf(buf)
		return PageView{}, err
	}
	return PageView{data: *buf, buf: buf}, nil
}
