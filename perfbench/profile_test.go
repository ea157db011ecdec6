package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"

	"dpa/internal/bh"
	"dpa/internal/nbody"
	"dpa/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"dpa/internal/core.(*RT).Spawn", "dpa/internal/bh.ForcePhase.func1"}, "core"},
		{[]string{"dpa/internal/bh.ForcePhase.func1.1", "dpa/internal/core.(*RT).run"}, "bh"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "dpa/internal/core.(*RT).Spawn"}, "gc"},
		{[]string{"runtime.mapaccess2", "dpa/internal/machine.(*touchSet).touch", "runtime.mallocgc"}, "machine"},
		{[]string{"runtime.scanobject", "runtime.gcDrainMarkWorkerDedicated", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime"},
		{[]string{"dpa/internal/sim"}, "sim"},
		{nil, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pbWriter encodes the protobuf subset the fixture needs.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(num int, data []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(data)))
	w.b = append(w.b, data...)
}

func (w *pbWriter) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(num, p)
}

func msg(fill func(w *pbWriter)) []byte {
	var w pbWriter
	fill(&w)
	return w.b
}

// fixtureProfile is a gzip-compressed profile with known stacks. Location 3
// carries an inlined frame (sim inlined into core), sample location lists
// come both packed and unpacked, and the second value (nanoseconds) must be
// ignored in favour of the first (sample count).
func fixtureProfile() []byte {
	names := []string{"", "samples", "count", "dpa/internal/sim.(*Proc).Post", "dpa/internal/core.(*RT).flush",
		"runtime.mallocgc", "runtime.newobject", "runtime.schedule", "dpa/internal/bh.ForcePhase.func1"}
	raw := msg(func(w *pbWriter) {
		// Functions 1..6 name strings 3..8.
		for id := uint64(1); id <= 6; id++ {
			w.bytes(profFunctionField, msg(func(f *pbWriter) {
				f.varint(funcIDField, id)
				f.varint(funcNameField, id+2)
			}))
		}
		loc := func(id uint64, fns ...uint64) {
			w.bytes(profLocationField, msg(func(l *pbWriter) {
				l.varint(locIDField, id)
				for _, fn := range fns {
					l.bytes(locLineField, msg(func(ln *pbWriter) { ln.varint(lineFuncField, fn) }))
				}
			}))
		}
		loc(1, 3)    // runtime.mallocgc
		loc(2, 4)    // runtime.newobject
		loc(3, 1, 2) // sim.Post inlined into core.flush
		loc(4, 5)    // runtime.schedule
		loc(5, 6)    // bh.ForcePhase.func1
		sample := func(count uint64, packed bool, locs ...uint64) {
			w.bytes(profSampleField, msg(func(s *pbWriter) {
				if packed {
					s.packed(sampleLocField, locs...)
				} else {
					for _, l := range locs {
						s.varint(sampleLocField, l)
					}
				}
				s.packed(sampleValueField, count, count*10_000_000)
			}))
		}
		sample(5, true, 3, 5)        // sim (inlined frame first)
		sample(2, false, 1, 2, 3, 5) // gc: mallocgc before any dpa frame
		sample(3, false, 4)          // runtime
		sample(4, true, 5)           // bh
		for _, s := range names {
			w.bytes(profStringField, []byte(s))
		}
	})
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
}

func TestFoldProfileFixture(t *testing.T) {
	got, err := foldProfile(fixtureProfile())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 5, "gc": 2, "runtime": 3, "bh": 4}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold[%q] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

func TestFoldProfileRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{profSampleField<<3 | 2, 50, 1})
	zw.Close()
	if _, err := foldProfile(buf.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestFoldRealProfile folds a profile written by runtime/pprof around a
// loop in an app package, which should own most samples.
func TestFoldRealProfile(t *testing.T) {
	bodies := nbody.Plummer(1500, 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		bh.DirectForces(bodies, 0.05)
	}
	pprof.StopCPUProfile()
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range got {
		total += n
	}
	if total == 0 || float64(got["bh"]) < 0.5*float64(total) {
		t.Errorf("bh holds %d of %d samples (%v), want most", got["bh"], total, got)
	}
}

func TestProbesDoTheirWork(t *testing.T) {
	if ns, err := handoffProbe(sim.NewEngine(), 1000); err != nil || ns <= 0 {
		t.Errorf("sequential hand-off probe: %v ns, %v", ns, err)
	}
	if ns, err := handoffProbe(sim.NewParallelTuned(probeDelay, sim.Tuning{Workers: 2}), 1000); err != nil || ns <= 0 {
		t.Errorf("parallel hand-off probe: %v ns, %v", ns, err)
	}
	hit := func(i int) uint64 { return uint64(i % hitKeys) }
	if _, err := touchProbe(hit, hitKeys, 5000, 5000, 0); err != nil {
		t.Errorf("hit stream: %v", err)
	}
	if _, err := touchProbe(hit, 0, 5000, 5000, 0); err == nil {
		t.Error("hit stream without warm-up passed a check that expects no misses")
	}
	if _, err := touchProbe(func(i int) uint64 { return uint64(i) }, 0, 5000, 0, 5000); err != nil {
		t.Errorf("miss stream: %v", err)
	}
}
