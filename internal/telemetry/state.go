package telemetry

import "fmt"

// SamplerState is the serializable state of a Sampler: the accumulated
// series, the current phase label, and the ring cursor. The tick chain
// itself is not state — it stops when a phase's queue drains and is
// re-armed per phase by the run loop.
type SamplerState struct {
	Series  Series
	Phase   string
	RingOff int
}

// State returns a deep copy of the sampler's accumulated series.
func (s *Sampler) State() *SamplerState {
	st := &SamplerState{Series: s.series, Phase: s.phase, RingOff: s.ringOff}
	st.Series.Samples = append([]Sample(nil), s.series.Samples...)
	st.Series.CounterNames = append([]string(nil), s.series.CounterNames...)
	return st
}

// RestoreState overwrites the sampler's series and cursor. A cursor
// outside the restored samples is an error, not a later panic in Series.
func (s *Sampler) RestoreState(st *SamplerState) error {
	if st.RingOff < 0 || st.RingOff > len(st.Series.Samples) {
		return fmt.Errorf("telemetry: sampler ring offset %d outside [0, %d]", st.RingOff, len(st.Series.Samples))
	}
	s.series = st.Series
	s.series.Samples = append([]Sample(nil), st.Series.Samples...)
	s.series.CounterNames = append([]string(nil), st.Series.CounterNames...)
	s.phase = st.Phase
	s.ringOff = st.RingOff
	return nil
}
