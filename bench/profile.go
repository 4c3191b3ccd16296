package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the sampling rate asked of the runtime. pprof.StartCPUProfile
// then tries to set its own 100 Hz and the runtime, keeping ours, prints
// "cannot set cpu profile rate until previous profile has finished" once
// per profile: expected, harmless. The kernel's timer tick caps what is
// delivered (250 Hz on the reference box), which is why attribution counts
// samples and accumulates passes instead of trusting the nominal rate.
const profileHz = 1000

// cpuProfile runs fn under the CPU profiler and returns the raw profile.
func cpuProfile(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// stackSample is one profile sample: how many times the stack was seen,
// and the stack as function names, leaf first.
type stackSample struct {
	count int64
	stack []string
}

// protoReader walks the protobuf wire format; just enough of it to read a
// pprof profile (varints and length-delimited fields).
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflows 64 bits")
	return 0
}

func (r *protoReader) bytes() []byte {
	n := r.varint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// next returns the next field number and wire type; ok is false at the end
// of the message or on error.
func (r *protoReader) next() (field int, wire int, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, false
	}
	tag := r.varint()
	return int(tag >> 3), int(tag & 7), r.err == nil
}

// skip discards a field of the given wire type.
func (r *protoReader) skip(wire int) {
	switch wire {
	case 0:
		r.varint()
	case 1:
		r.fixed(8)
	case 2:
		r.bytes()
	case 5:
		r.fixed(4)
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
	}
}

func (r *protoReader) fixed(n int) {
	if len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.b = r.b[n:]
}

// uints reads a repeated integer field, packed or not.
func (r *protoReader) uints(wire int, dst []uint64) []uint64 {
	if wire != 2 {
		return append(dst, r.varint())
	}
	packed := protoReader{b: r.bytes()}
	for len(packed.b) > 0 && packed.err == nil {
		dst = append(dst, packed.varint())
	}
	if packed.err != nil {
		r.err = packed.err
	}
	return dst
}

// parseProfile decodes a gzipped pprof CPU profile into stack samples.
// Field numbers follow pprof's profile.proto: Profile{sample=2, location=4,
// function=5, string_table=6}, Sample{location_id=1, value=2},
// Location{id=1, line=4}, Line{function_id=1}, Function{id=1, name=2}.
// A location's lines list inlined frames innermost first, so flattening
// them in order keeps the stack leaf first.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]uint64{}   // function id → string-table index
	var table []string

	top := protoReader{b: raw}
	for {
		field, wire, ok := top.next()
		if !ok {
			break
		}
		if wire != 2 {
			top.skip(wire)
			continue
		}
		msg := protoReader{b: top.bytes()}
		switch field {
		case 2: // sample
			var s rawSample
			var values []uint64
			for {
				f, w, ok := msg.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs = msg.uints(w, s.locs)
				case 2:
					values = msg.uints(w, values)
				default:
					msg.skip(w)
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // value[0] is the sample count
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			for {
				f, w, ok := msg.next()
				if !ok {
					break
				}
				switch {
				case f == 1 && w == 0:
					id = msg.varint()
				case f == 4 && w == 2:
					line := protoReader{b: msg.bytes()}
					for {
						lf, lw, ok := line.next()
						if !ok {
							break
						}
						if lf == 1 && lw == 0 {
							funcs = append(funcs, line.varint())
						} else {
							line.skip(lw)
						}
					}
					if line.err != nil {
						msg.err = line.err
					}
				default:
					msg.skip(w)
				}
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			for {
				f, w, ok := msg.next()
				if !ok {
					break
				}
				switch {
				case f == 1 && w == 0:
					id = msg.varint()
				case f == 2 && w == 0:
					name = msg.varint()
				default:
					msg.skip(w)
				}
			}
			funcName[id] = name
		case 6: // string table entry
			table = append(table, string(msg.b))
		}
		if msg.err != nil {
			return nil, fmt.Errorf("profile: field %d: %w", field, msg.err)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(table)) {
					st.stack = append(st.stack, table[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "flowercdn/internal/bloom.(*Filter).TestHash": everything before the
// first dot that follows the last slash. Type arguments of generic
// instantiations are cut first, since they may contain slashes.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var cpuLayerSet = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range cpuLayers {
		m[l] = true
	}
	return m
}()

// layerOf attributes a sample to a layer by the package of its leaf
// function. Samples whose leaf is in the Go runtime are split by walking
// up the stack to the first frame that says why the runtime was running:
// collecting (marking, sweeping, assists, write barriers), allocating, or
// anything else (scheduler, maps, memmove).
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := packageOf(stack[0])
	switch {
	case strings.HasPrefix(pkg, "flowercdn/internal/"):
		if l := strings.TrimPrefix(pkg, "flowercdn/internal/"); cpuLayerSet[l] {
			return l
		}
		return "other"
	case pkg == "flowercdn":
		return "harness" // the facade is a thin veneer over internal/harness
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, fn := range stack {
			if !strings.HasPrefix(fn, "runtime.") {
				break
			}
			name := strings.TrimPrefix(fn, "runtime.")
			switch {
			case strings.HasPrefix(name, "gc"), strings.HasPrefix(name, "bgsweep"),
				strings.HasPrefix(name, "bgscavenge"), strings.HasPrefix(name, "wbBuf"),
				strings.HasPrefix(name, "scanobject"), strings.HasPrefix(name, "greyobject"),
				strings.HasPrefix(name, "markroot"), strings.Contains(name, "sweep"):
				return "runtime_gc"
			case strings.HasPrefix(name, "mallocgc"), strings.HasPrefix(name, "newobject"),
				strings.HasPrefix(name, "makeslice"), strings.HasPrefix(name, "growslice"),
				strings.HasPrefix(name, "newarray"), strings.HasPrefix(name, "(*mcache)"),
				strings.HasPrefix(name, "(*mcentral)"), strings.HasPrefix(name, "(*mheap).alloc"):
				return "runtime_malloc"
			}
		}
		return "runtime_other"
	}
	return "other"
}

// cpuShares groups flat samples by layer and returns each layer's share
// of all samples (summing to 1) and the sample count.
func cpuShares(samples []stackSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total
}
