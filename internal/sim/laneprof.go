package sim

// DefaultLaneWindowCap bounds how many parallel windows a LaneProfile
// retains (earliest kept; TotalWindows keeps counting past the cap).
const DefaultLaneWindowCap = 4096

// LaneWindow is one lane's record of one conservative lookahead
// window executed by RunParallel.
type LaneWindow struct {
	Lane  int
	Start Time // window base H (cycles)
	End   Time // inclusive window end (cycles)
	// Events is how many events the lane dispatched inside the window;
	// zero means the lane sat out the window (a lookahead stall: it had
	// no work below the horizon and only waited at the barrier).
	Events uint64
	// Out is the lane's outbox depth at the barrier: cross-shard
	// messages produced this window and exchanged after it.
	Out int
	// WaitNS is the host wall-clock time from the lane finishing its
	// window to the barrier completing — the lane's idle share of the
	// window (straggler lanes have small waits, fast lanes large ones).
	// Wall-clock data is nondeterministic by nature, so it lives only
	// here, never in simulation results.
	WaitNS int64
}

// LaneProfile collects RunParallel's per-window, per-lane execution
// profile. Attach one with ShardedKernel.SetLaneProfile before calling
// RunParallel. Pure observation: recording reads lane state only at
// window barriers, so the event stream and every simulation result are
// identical with a profile attached or not.
type LaneProfile struct {
	Lanes        int
	Lookahead    Time
	TotalWindows int
	// Windows holds one row per (window, lane), window-major, for the
	// first Cap windows.
	Windows []LaneWindow
	// Cap bounds retained windows (0 = DefaultLaneWindowCap, set when
	// the profile is attached).
	Cap int
}

// Stalls returns how many retained (window, lane) rows dispatched no
// events — the lookahead-stall count of the retained prefix.
func (lp *LaneProfile) Stalls() int {
	n := 0
	for i := range lp.Windows {
		if lp.Windows[i].Events == 0 {
			n++
		}
	}
	return n
}

// SetLaneProfile attaches (or, with nil, detaches) a per-window lane
// profiler to the group. A LaneProfile is safe — and only meaningful —
// under RunParallel: all recording happens between windows on the
// coordinating goroutine, plus one wall-clock read per lane at window
// end.
func (sk *ShardedKernel) SetLaneProfile(lp *LaneProfile) {
	sk.laneProf = lp
	if lp != nil {
		lp.Lanes = len(sk.kernels)
		lp.Lookahead = sk.lookahead
		if lp.Cap == 0 {
			lp.Cap = DefaultLaneWindowCap
		}
	}
}
