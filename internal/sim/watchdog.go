package sim

import "errors"

// Watchdog periodically runs a probe over the simulation state to
// detect stalled transactions before they turn into a silent hang.
// The probe returns "" while everything is healthy; a non-empty
// return (typically a dump of the stuck block's per-tile state) is
// recorded as the watchdog error and disarms the watchdog.
//
// The watchdog is event-driven: while armed it re-schedules itself
// every interval, but only as long as other events are pending, so a
// drained kernel still terminates with the watchdog armed.
type Watchdog struct {
	k        *Kernel
	interval Time
	probe    func() string
	armed    bool
	ticking  bool
	err      error
}

// NewWatchdog builds a watchdog on k that calls probe every interval
// cycles while armed. It starts disarmed.
func NewWatchdog(k *Kernel, interval Time, probe func() string) *Watchdog {
	if interval <= 0 {
		interval = 10_000
	}
	return &Watchdog{k: k, interval: interval, probe: probe}
}

// Arm starts (or resumes) periodic probing.
func (w *Watchdog) Arm() {
	w.armed = true
	if !w.ticking {
		w.ticking = true
		w.k.AfterArg(w.interval, watchdogTick, w)
	}
}

// Disarm stops probing; any recorded error is kept.
func (w *Watchdog) Disarm() { w.armed = false }

// Err returns the first probe failure, or nil.
func (w *Watchdog) Err() error { return w.err }

func watchdogTick(a any) { a.(*Watchdog).tick() }

func (w *Watchdog) tick() {
	w.ticking = false
	if !w.armed {
		return
	}
	if w.err == nil {
		if msg := w.probe(); msg != "" {
			w.err = errors.New(msg)
			w.armed = false
			return
		}
	}
	// Reschedule only while other work is pending, so Run(0) drains.
	if w.k.Pending() > 0 {
		w.ticking = true
		w.k.AfterArg(w.interval, watchdogTick, w)
	}
}
