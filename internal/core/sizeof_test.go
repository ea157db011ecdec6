package core

import (
	"testing"
	"unsafe"
)

// Layout budgets for the runtime's hot structs (64-bit platforms). dEntry is
// the fused M/D table entry — one per renamed copy, pooled and recycled, and
// the planner's reuse-region stamp had to fit in its padding rather than grow
// it. fetchReq/fetchReply are the free-list nodes the fetch protocol recycles
// on every aggregation batch, and readyEntry is copied through the ready
// queues once per thread. A failing test here means a field was added
// without repacking: either restore the layout or raise the budget in the
// same change with a justification.
func TestHotStructSizeBudgets(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	cases := []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		// Object interface (2 words) + waiters slice (3 words) + lastUse
		// (int32) + arrived (bool) packed into the final word: the reuse-
		// region stamp rides the padding that was already there.
		{"core.dEntry", unsafe.Sizeof(dEntry{}), 48},
		// One pointer batch: a single slice header.
		{"core.fetchReq", unsafe.Sizeof(fetchReq{}), 24},
		// Pointer batch + object batch: two slice headers.
		{"core.fetchReply", unsafe.Sizeof(fetchReply{}), 48},
		// Ready thread: object key, Object interface (2 words), thread
		// closure.
		{"core.readyEntry", unsafe.Sizeof(readyEntry{}), 32},
	}
	for _, c := range cases {
		t.Logf("%s = %d bytes (budget %d)", c.name, c.size, c.budget)
		if c.size > c.budget {
			t.Errorf("%s grew to %d bytes, over its %d-byte budget; repack or re-justify",
				c.name, c.size, c.budget)
		}
	}
}
