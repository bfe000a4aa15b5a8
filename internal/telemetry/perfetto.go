package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceEvent is one Chrome/Perfetto trace-event record. Timestamps
// are simulation cycles written into the "ts"/"dur" microsecond
// fields: the absolute unit is meaningless for a cycle-accurate
// simulator, and Perfetto renders relative durations regardless.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoFile is the JSON-object trace container format.
type perfettoFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WritePerfetto exports the retained spans of one or more tracers
// (one process per tracer/protocol, one thread per tile) as
// trace-event JSON loadable in ui.perfetto.dev or chrome://tracing.
//
// Each closed span becomes a complete ("X") slice on its requestor
// tile's thread; every message becomes an async begin/end pair with
// its own ID, so overlapping traffic (parallel invalidations) renders
// without nesting violations; protocol annotations become thread-
// scoped instant events. Events are sorted by timestamp, so the
// output passes a monotonicity check. Open (unretired) spans are not
// exported — after a completed run there are none, and a partial
// export must not contain unclosed slices.
func WritePerfetto(w io.Writer, tracers ...*Tracer) error {
	f := perfettoFile{
		DisplayTimeUnit: "ns",
		OtherData:       map[string]any{"tool": "cmpsim", "unit": "cycles"},
	}
	var meta, events []traceEvent
	for pi, t := range tracers {
		pid := pi + 1
		meta = append(meta, traceEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": t.Protocol},
		})
		tilesSeen := map[int]bool{}
		for _, s := range t.Spans() {
			if !s.Closed() {
				continue
			}
			tid := int(s.Tile)
			tilesSeen[tid] = true
			op := "R"
			if s.Write {
				op = "W"
			}
			dur := uint64(s.End - s.Start)
			events = append(events, traceEvent{
				Name: fmt.Sprintf("%s miss %#x", op, s.Addr),
				Cat:  "miss", Ph: "X", TS: uint64(s.Start), Dur: &dur,
				PID: pid, TID: tid,
				Args: map[string]any{
					"class":   s.Class,
					"retries": s.Retries,
					"dropped": s.Dropped,
					"hops":    len(s.Hops),
					"span":    s.ID,
				},
			})
			for hi := range s.Hops {
				h := &s.Hops[hi]
				kind := "ctl"
				if h.Flits > 1 {
					kind = "data"
				}
				if h.Bcast {
					kind = "bcast"
				}
				name := fmt.Sprintf("%d→%d %s", h.Src, h.Dst, kind)
				id := fmt.Sprintf("s%d.h%d", s.ID, hi)
				args := map[string]any{"flits": h.Flits, "links": h.Links, "span": s.ID}
				if h.Late {
					args["late"] = true
				}
				events = append(events,
					traceEvent{Name: name, Cat: "hop", Ph: "b", TS: uint64(h.Depart), PID: pid, TID: int(h.Src), ID: id, Args: args},
					traceEvent{Name: name, Cat: "hop", Ph: "e", TS: uint64(h.Arrive), PID: pid, TID: int(h.Src), ID: id},
				)
			}
			for _, ev := range s.Events {
				events = append(events, traceEvent{
					Name: ev.Name, Cat: "proto", Ph: "i", TS: uint64(ev.At),
					PID: pid, TID: int(ev.Tile), Scope: "t",
					Args: map[string]any{"span": s.ID, "addr": fmt.Sprintf("%#x", ev.Addr)},
				})
			}
		}
		tids := make([]int, 0, len(tilesSeen))
		for tid := range tilesSeen {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			meta = append(meta, traceEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("tile %d", tid)},
			})
		}
		f.OtherData[t.Protocol+"_spans_dropped"] = t.Dropped()
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	f.TraceEvents = append(meta, events...)
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// TraceSummary is what ValidatePerfetto learned about a trace file.
type TraceSummary struct {
	Events int
	Spans  int
	Hops   int
	ByPID  map[int]string // pid -> process (protocol) name
}

// ValidatePerfetto decodes a trace-event JSON file and verifies the
// invariants CI enforces on exported traces: well-formed JSON with a
// non-empty traceEvents array, known phase types, non-decreasing
// timestamps, every async begin matched by exactly one end of the
// same (cat, id), every complete slice carrying a duration, and every
// miss slice closed (a miss class recorded). It returns a summary of what it saw.
func ValidatePerfetto(r io.Reader) (TraceSummary, error) {
	sum := TraceSummary{ByPID: map[int]string{}}
	var f perfettoFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return sum, fmt.Errorf("telemetry: malformed trace JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return sum, fmt.Errorf("telemetry: trace has no events")
	}
	sum.Events = len(f.TraceEvents)
	var lastTS uint64
	sawNonMeta := false
	openAsync := map[string]int{}
	for i := range f.TraceEvents {
		e := &f.TraceEvents[i]
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				if name, ok := e.Args["name"].(string); ok {
					sum.ByPID[e.PID] = name
				}
			}
			continue
		case "X":
			if e.Dur == nil {
				return sum, fmt.Errorf("telemetry: event %d: slice %q (cat %q) has no duration (not closed)", i, e.Name, e.Cat)
			}
			if e.Cat == "miss" {
				sum.Spans++
				if cls, ok := e.Args["class"].(string); !ok || cls == "" {
					return sum, fmt.Errorf("telemetry: event %d: miss slice %q has no class (span not closed)", i, e.Name)
				}
			}
		case "b":
			openAsync[e.Cat+"\x00"+e.ID]++
			if e.Cat == "hop" {
				sum.Hops++
			}
		case "e":
			key := e.Cat + "\x00" + e.ID
			openAsync[key]--
			if openAsync[key] < 0 {
				return sum, fmt.Errorf("telemetry: event %d: async end %q (id %s) without begin", i, e.Name, e.ID)
			}
		case "i":
			// instant events need no pairing
		default:
			return sum, fmt.Errorf("telemetry: event %d: unknown phase %q", i, e.Ph)
		}
		if sawNonMeta && e.TS < lastTS {
			return sum, fmt.Errorf("telemetry: event %d (%q): timestamp %d before %d — not monotonic", i, e.Name, e.TS, lastTS)
		}
		lastTS, sawNonMeta = e.TS, true
	}
	for key, n := range openAsync {
		if n != 0 {
			return sum, fmt.Errorf("telemetry: async pair %q unbalanced by %d", key, n)
		}
	}
	if sum.Spans == 0 {
		return sum, fmt.Errorf("telemetry: trace contains no miss spans")
	}
	return sum, nil
}
