package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the subset of pprof's profile.proto that the layer
// fold needs (sample types, samples with labels, locations, functions
// and the string table) with the standard library alone, and maps each
// sample's leaf function to the simulator layer it belongs to.

// profile is a decoded CPU profile.
type profile struct {
	sampleTypes []valueType
	samples     []sample
	leafFunc    map[uint64]uint64 // location id -> innermost function id
	funcName    map[uint64]string
}

type valueType struct{ typ, unit string }

type sample struct {
	locs   []uint64 // leaf first
	values []int64
	labels map[string]string
}

// decoder walks one protocol-buffer message.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) done() bool { return d.err != nil || len(d.b) == 0 }

func (d *decoder) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			d.err = errors.New("profile: truncated varint")
			return 0
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	d.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// key reads a field key: the field number and its wire type.
func (d *decoder) key() (field int, wire int) {
	k := d.varint()
	return int(k >> 3), int(k & 7)
}

func (d *decoder) bytes() []byte {
	n := d.varint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = errors.New("profile: truncated field")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// skip discards a field of the given wire type.
func (d *decoder) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1:
		d.fixed(8)
	case 2:
		d.bytes()
	case 5:
		d.fixed(4)
	default:
		d.err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
}

func (d *decoder) fixed(n int) {
	if len(d.b) < n {
		d.err = errors.New("profile: truncated fixed field")
		return
	}
	d.b = d.b[n:]
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func (d *decoder) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, d.varint())
	}
	if wire != 2 {
		d.err = fmt.Errorf("profile: repeated integer with wire type %d", wire)
		return dst
	}
	p := decoder{b: d.bytes()}
	for !p.done() {
		dst = append(dst, p.varint())
	}
	if p.err != nil {
		d.err = p.err
	}
	return dst
}

// parseProfile decodes a (possibly gzipped) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		types     [][2]uint64 // string indices of each sample type
		rawLabels [][][2]uint64
		funcIdx   = map[uint64]uint64{} // function id -> name string index
	)
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	d := decoder{b: data}
	for !d.done() {
		field, wire := d.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			m := decoder{b: d.bytes()}
			var t [2]uint64
			for !m.done() {
				f, w := m.key()
				if f == 1 || f == 2 {
					t[f-1] = m.varint()
				} else {
					m.skip(w)
				}
			}
			types = append(types, t)
			d.err = errors.Join(d.err, m.err)
		case field == 2 && wire == 2: // sample
			m := decoder{b: d.bytes()}
			var s sample
			var labels [][2]uint64
			for !m.done() {
				f, w := m.key()
				switch f {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					var vs []uint64
					vs = m.uints(w, vs)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				case 3:
					l := decoder{b: m.bytes()}
					var kv [2]uint64
					for !l.done() {
						lf, lw := l.key()
						if lf == 1 || lf == 2 {
							kv[lf-1] = l.varint()
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
					labels = append(labels, kv)
				default:
					m.skip(w)
				}
			}
			p.samples = append(p.samples, s)
			rawLabels = append(rawLabels, labels)
			d.err = errors.Join(d.err, m.err)
		case field == 4 && wire == 2: // location
			m := decoder{b: d.bytes()}
			var id, leaf uint64
			first := true
			for !m.done() {
				f, w := m.key()
				switch f {
				case 1:
					id = m.varint()
				case 4:
					// Inlined frames are listed innermost first; the
					// first line's function is the one that was running.
					l := decoder{b: m.bytes()}
					for !l.done() {
						lf, lw := l.key()
						if lf == 1 && first {
							leaf = l.varint()
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
					first = false
				default:
					m.skip(w)
				}
			}
			p.leafFunc[id] = leaf
			d.err = errors.Join(d.err, m.err)
		case field == 5 && wire == 2: // function
			m := decoder{b: d.bytes()}
			var id, name uint64
			for !m.done() {
				f, w := m.key()
				switch f {
				case 1:
					id = m.varint()
				case 2:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			funcIdx[id] = name
			d.err = errors.Join(d.err, m.err)
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(d.bytes()))
		default:
			d.skip(wire)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	for _, t := range types {
		typ, err1 := str(t[0])
		unit, err2 := str(t[1])
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, valueType{typ, unit})
	}
	for i, labels := range rawLabels {
		if len(labels) == 0 {
			continue
		}
		p.samples[i].labels = map[string]string{}
		for _, kv := range labels {
			k, err1 := str(kv[0])
			v, err2 := str(kv[1])
			if err := errors.Join(err1, err2); err != nil {
				return nil, err
			}
			p.samples[i].labels[k] = v
		}
	}
	for id, idx := range funcIdx {
		name, err := str(idx)
		if err != nil {
			return nil, err
		}
		p.funcName[id] = name
	}
	return p, nil
}

// layers are the simulator's layers in report order. Every profile
// sample lands in exactly one of them.
var layers = []string{"sim", "mesh", "cache", "memctrl", "workload", "proto", "core", "runtime", "other"}

// layerOfPackage maps the internal packages to their layer. Packages
// not listed are "other": topo, the standard library outside the
// runtime, the benchmark itself, and the observation packages
// (telemetry, check, obs, stats, power), which with observers off take
// too few samples to be a layer of their own.
var layerOfPackage = map[string]string{
	"repro/internal/sim":      "sim",
	"repro/internal/mesh":     "mesh",
	"repro/internal/cache":    "cache",
	"repro/internal/memctrl":  "memctrl",
	"repro/internal/workload": "workload",
	"repro/internal/proto":    "proto",
	"repro/internal/core":     "core",
}

// packageOf returns the import path of a symbolized Go function name,
// such as "repro/internal/cache" for "repro/internal/cache.(*Cache).Probe".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf returns the layer a function's self time is charged to.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// fold charges the CPU time of every sample carrying all of the want
// labels to the layer of its leaf function, in nanoseconds per layer.
func fold(p *profile, want map[string]string) (map[string]int64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t.unit == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	byLayer := map[string]int64{}
next:
	for _, s := range p.samples {
		for k, v := range want {
			if s.labels[k] != v {
				continue next
			}
		}
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a nanoseconds value")
		}
		layer := "other" // the runtime records some samples without a stack
		if len(s.locs) > 0 {
			layer = layerOf(p.funcName[p.leafFunc[s.locs[0]]])
		}
		byLayer[layer] += s.values[vi]
	}
	return byLayer, nil
}
