package main

import "time"

// pacer is the open-loop schedule of the ingest-mixed writer: operation
// i is due at start + i*interval whatever happened to operation i-1.
// A sensor feed does not slow down because the store stalled, so the
// schedule never skips a slot: after a stall the overdue operations are
// issued back to back until the writer has caught up (a time.Ticker
// would drop those ticks and quietly turn the loop into a closed one).
// Latency is timed from the due time, so the wait a stall imposes on
// the operations queued behind it is counted.
type pacer struct {
	start    time.Time
	interval time.Duration
	n        int64
	// now and sleep are the clock; tests substitute a fake one.
	now   func() time.Time
	sleep func(time.Duration)
}

func newPacer(start time.Time, perSecond int) *pacer {
	return &pacer{
		start:    start,
		interval: time.Second / time.Duration(perSecond),
		now:      time.Now,
		sleep:    time.Sleep,
	}
}

// wait blocks until the next operation is due and returns its due time
// and how late the generator is issuing it (0 when on time). It never
// blocks when the schedule is behind.
func (p *pacer) wait() (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	if late = p.now().Sub(due); late < 0 {
		late = 0
	}
	return due, late
}
