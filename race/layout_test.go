package race

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ccs"
	"repro/internal/core"
	"repro/internal/fto"
	"repro/internal/graph"
	"repro/internal/report"
	"repro/internal/workload"
)

// The pipeline runs an engine's computations on different cores, so a store
// one of them makes per event must not land on a cache line another one
// touches (see report.Pad). These tests hold that two ways: a rule per
// struct, whose failure names the struct, and the addresses of a built
// engine, which are the ground truth.

const lineBytes = 64

var padType = reflect.TypeOf(report.Pad{})

// hotStructs are the structs that take a store per event, per access or per
// race. A new one belongs here, and between two Pads.
var hotStructs = []reflect.Type{
	reflect.TypeOf((*graph.Graph)(nil)).Elem(),        // cur, per edge
	reflect.TypeOf((*report.Collector)(nil)).Elem(),   // races, per race
	reflect.TypeOf((*fto.View)(nil)).Elem(),           // st.Reads/Writes, per access
	reflect.TypeOf((*core.Analysis)(nil)).Elem(),      // idx, raced, cases, per event
	reflect.TypeOf((*ccs.Substrate)(nil)).Elem(),      // idx, per event
	reflect.TypeOf((*analysis.SyncState)(nil)).Elem(), // read per event beside them
}

// hotTables are the slice fields of hotStructs stored into per event whose
// backing arrays are too small for the allocator to give them lines of their
// own: they are allocated with a Pad's worth of slack on both sides.
var hotTables = []string{"marks"}

// TestHotStructsAreBracketed: every hot struct starts and ends with a Pad.
// It fails when either Pad is deleted and when a field is appended after the
// closing one.
func TestHotStructsAreBracketed(t *testing.T) {
	if padType.Size() != lineBytes {
		t.Fatalf("report.Pad is %d bytes, a cache line is %d", padType.Size(), lineBytes)
	}
	for _, typ := range hotStructs {
		first, last := typ.Field(0), typ.Field(typ.NumField()-1)
		if first.Type != padType || first.Offset != 0 {
			t.Errorf("%v: first field is %s %v, want a report.Pad at offset 0", typ, first.Name, first.Type)
		}
		if last.Type != padType {
			t.Errorf("%v: last field is %s %v, want a report.Pad", typ, last.Name, last.Type)
		}
	}
}

// span is the address range [lo, hi) of one object, or of the part of it
// between its Pads.
type span struct {
	lo, hi uintptr
	what   string
}

// footprint walks everything reachable from one computation.
type footprint struct {
	seen    map[[2]uintptr]bool // (address, type) pairs already walked
	touched []span              // every struct and backing array reached
	hot     []span              // hotStructs between their Pads, and hotTables
}

func (f *footprint) visit(addr uintptr, typ reflect.Type) bool {
	key := [2]uintptr{addr, reflect.ValueOf(typ).Pointer()}
	if f.seen[key] {
		return false
	}
	f.seen[key] = true
	return true
}

// pointers reports whether values of typ can lead to more memory.
func pointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		return true
	case reflect.Array:
		return pointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if pointers(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

func (f *footprint) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && f.visit(v.Pointer(), v.Type()) {
			f.touched = append(f.touched, span{v.Pointer(), v.Pointer() + v.Type().Elem().Size(), v.Type().String()})
			f.walk(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			f.walk(v.Elem())
		}
	case reflect.Struct:
		typ := v.Type()
		if v.CanAddr() && slices.Contains(hotStructs, typ) {
			lo, hi := v.UnsafeAddr(), v.UnsafeAddr()+typ.Size()
			if last := typ.Field(typ.NumField() - 1); last.Type == padType {
				hi = lo + last.Offset
			}
			if typ.Field(0).Type == padType {
				lo += lineBytes
			}
			f.hot = append(f.hot, span{lo, hi, typ.String()})
		}
		for i := 0; i < v.NumField(); i++ {
			fv := v.Field(i)
			if fv.Kind() == reflect.Slice && fv.Cap() > 0 && slices.Contains(hotTables, typ.Field(i).Name) {
				f.hot = append(f.hot, span{fv.Pointer(), fv.Pointer() + uintptr(fv.Cap())*fv.Type().Elem().Size(), typ.String() + "." + typ.Field(i).Name})
			}
			f.walk(fv)
		}
	case reflect.Slice:
		if v.Cap() == 0 || !f.visit(v.Pointer(), v.Type()) {
			return
		}
		f.touched = append(f.touched, span{v.Pointer(), v.Pointer() + uintptr(v.Cap())*v.Type().Elem().Size(), v.Type().String()})
		if pointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				f.walk(v.Index(i))
			}
		}
	case reflect.Array:
		if pointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				f.walk(v.Index(i))
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			f.walk(it.Key())
			f.walk(it.Value())
		}
	}
}

func (s span) lines() (first, last uintptr) { return s.lo / lineBytes, (s.hi - 1) / lineBytes }

// TestComputationsShareNoCacheLine builds the 15-cell engine the way the
// benchmark does (no hints) and the way FeedTrace's callers can (the trace's
// hints), runs 20 k h2 events through the pipeline, and walks each
// computation's memory: no line under a hot struct or hot table of one
// computation may hold a byte another computation can reach.
func TestComputationsShareNoCacheLine(t *testing.T) {
	p, _ := workload.ProgramByName("h2")
	tr := p.Generate(190000, 1) // 20 k events
	for name, hints := range map[string]CapacityHints{"no hints": {}, "trace hints": HintsOf(tr)} {
		eng, err := NewEngine(WithAnalysisNames(Detectors()...), WithCapacityHints(hints), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedBatch(tr.Events); err != nil {
			t.Fatal(err)
		}
		if err := eng.Sync(); err != nil { // the workers are idle from here on
			t.Fatal(err)
		}
		type hotLine struct {
			what string
			comp int
		}
		owner := make(map[uintptr]hotLine) // line → the hot span on it
		prints := make([]*footprint, len(eng.comps))
		for ci, c := range eng.comps {
			f := &footprint{seen: make(map[[2]uintptr]bool)}
			f.walk(reflect.ValueOf(c.a))
			prints[ci] = f
			if len(f.hot) == 0 {
				t.Fatalf("%s: computation %s has no hot struct: the walk is broken", name, c.name)
			}
			for _, s := range f.hot {
				for first, last := s.lines(); first <= last; first++ {
					owner[first] = hotLine{fmt.Sprintf("%s of %s", s.what, c.name), ci}
				}
			}
		}
		for ci, f := range prints {
			for _, s := range f.touched {
				for first, last := s.lines(); first <= last; first++ {
					if hot, ok := owner[first]; ok && hot.comp != ci {
						t.Errorf("%s: line %#x under %s also holds a %s of %s", name, first*lineBytes, hot.what, s.what, eng.comps[ci].name)
					}
				}
			}
		}
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
