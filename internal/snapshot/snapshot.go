// Package snapshot serializes the complete simulator state at the
// quiescent warmup/measure boundary, so one warmup phase can fork into
// many measure phases (or be persisted and resumed later).
//
// Capture is only defined where core.System.RunWarmup leaves the
// system: the kernel queue drained, every MSHR empty, every protocol
// transaction table empty, the watchdog and sampler tick chains
// self-stopped. At that point the simulator holds only pure data —
// cache arrays, directory state, page tables, RNG cursors, counters —
// and no closures, so the whole machine serializes. Any transient
// state found during capture is an error by design: a record that
// survives a drained kernel is a hidden-state bug, and the snapshot
// layer is its detector.
package snapshot

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// State is the serializable whole-system state at a phase boundary.
type State struct {
	// Config is the warmup-normalized configuration the snapshot was
	// taken under (see WarmupConfig). A fork's own config must
	// normalize to the same value.
	Config core.Config

	Kernel   sim.KernelState
	Net      *mesh.NetworkState
	Mem      memctrl.ControllersState
	Mapper   *memctrl.MapperState
	Gen      *workload.GeneratorState
	Engine   *proto.EngineState
	Counters []stats.CounterState
	Profile  proto.MissProfile

	RefsTotal uint64

	// Shadow is non-nil only when the source run had Check set.
	Shadow *check.ShadowState
	// Sampler is non-nil only when the source run sampled telemetry.
	Sampler *telemetry.SamplerState
}

// WarmupConfig normalizes a configuration to the fields that shape the
// warmup phase. Two configs with equal WarmupConfig produce
// bit-identical state at the warmup/measure boundary, so their runs
// may share one captured snapshot; the zeroed fields (measured-phase
// length, checkers, telemetry) only affect the measure phase.
func WarmupConfig(cfg core.Config) core.Config {
	cfg.RefsPerCore = 0
	cfg.Check = false
	cfg.StallBound = 0
	cfg.Trace = false
	cfg.TraceCap = 0
	cfg.SampleEvery = 0
	cfg.SampleCap = 0
	// Per-VM attribution is observation-only and reset at the
	// warmup/measure boundary, so a plain warmup serves attributed forks
	// (the fork's own config arms it at construction).
	cfg.PerVM = false
	// Sharding is an execution strategy, not a model change: any shard
	// count — and either window executor — produces bit-identical
	// state, so a serial warmup may fork into sharded or RunParallel
	// measure phases and vice versa.
	cfg.Shards = 0
	cfg.Parallel = false
	return cfg
}

// Capture serializes the system's state. The system must be quiescent
// (between phases); any in-flight work is a capture error.
func Capture(s *core.System) (*State, error) {
	kst, err := s.KernelState()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %v", err)
	}
	est, err := proto.EngineStateOf(s.Engine)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %v", err)
	}
	st := &State{
		Config:    WarmupConfig(s.Cfg),
		Kernel:    kst,
		Net:       s.Net.State(),
		Mem:       s.Mem.State(),
		Mapper:    s.Mapper.State(),
		Gen:       s.Gen.State(),
		Engine:    est,
		Counters:  s.Engine.Stats().State(),
		Profile:   s.Ctx.Profile,
		RefsTotal: s.RefsRetired(),
	}
	if s.Shadow != nil {
		st.Shadow = s.Shadow.State()
	}
	if s.Sampler != nil {
		st.Sampler = s.Sampler.State()
	}
	return st, nil
}

// Restore overwrites a freshly built system's state with a captured
// one. The system's configuration must warmup-normalize to the
// snapshot's config; measure-phase knobs (RefsPerCore, Check, Trace,
// sampling) are free to differ — that is the point of forking. All
// snapshot data is deep-copied in, so one State may be restored into
// any number of systems. A malformed state (a missing section, an
// out-of-range cursor) is an error, never a panic.
func Restore(s *core.System, st *State) error {
	if got := WarmupConfig(s.Cfg); got != st.Config {
		return fmt.Errorf("snapshot: config mismatch: snapshot warmed up as %+v, system is %+v", st.Config, got)
	}
	switch {
	case st.Net == nil:
		return errors.New("snapshot: missing network state")
	case st.Mapper == nil:
		return errors.New("snapshot: missing mapper state")
	case st.Gen == nil:
		return errors.New("snapshot: missing generator state")
	case st.Engine == nil:
		return errors.New("snapshot: missing engine state")
	}
	if err := s.RestoreKernelState(st.Kernel); err != nil {
		return fmt.Errorf("snapshot: %v", err)
	}
	if err := s.Net.RestoreState(st.Net); err != nil {
		return fmt.Errorf("snapshot: %v", err)
	}
	s.Mem.RestoreState(st.Mem)
	if err := s.Mapper.RestoreState(st.Mapper); err != nil {
		return fmt.Errorf("snapshot: %v", err)
	}
	if err := s.Gen.RestoreState(st.Gen); err != nil {
		return fmt.Errorf("snapshot: %v", err)
	}
	if err := proto.RestoreEngineState(s.Engine, st.Engine); err != nil {
		return fmt.Errorf("snapshot: %v", err)
	}
	s.Engine.Stats().RestoreState(st.Counters)
	s.Ctx.Profile = st.Profile
	s.SetRefsRetired(st.RefsTotal)
	// A snapshot taken without Check restores into a checking system
	// with an empty shadow: the checker then verifies the measure phase
	// only, which is exactly what a straight-through Check run reports
	// (warmup resets discard pre-measure state anyway). A snapshot WITH
	// shadow state restores it when the target checks too.
	if st.Shadow != nil && s.Shadow != nil {
		if err := s.Shadow.RestoreState(st.Shadow); err != nil {
			return fmt.Errorf("snapshot: %v", err)
		}
	}
	if st.Sampler != nil && s.Sampler != nil {
		if err := s.Sampler.RestoreState(st.Sampler); err != nil {
			return fmt.Errorf("snapshot: %v", err)
		}
	}
	return nil
}

// Fork builds a new system under cfg and restores the snapshot into
// it. cfg must warmup-normalize to the snapshot's config; its
// measure-phase knobs select what the fork will do. The returned
// system stands exactly at the warmup/measure boundary: call
// RunMeasure on it.
func Fork(st *State, cfg core.Config) (*core.System, error) {
	s, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := Restore(s, st); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode writes the state as a gob stream.
func Encode(w io.Writer, st *State) error {
	return gob.NewEncoder(w).Encode(st)
}

// Decode reads a state previously written by Encode.
func Decode(r io.Reader) (*State, error) {
	var st State
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Bytes serializes the state to a byte slice.
func Bytes(st *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
