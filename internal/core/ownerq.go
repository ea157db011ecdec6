package core

// ownerQueue is the owner-major ready queue used in planner mode: one run
// list per owner node, served to exhaustion in first-arrival owner order.
// Threads whose objects came from the same owner run consecutively — the
// paper's tiling, extended from "same renamed object" to "same reply batch" —
// and their nested spawns accumulate in the aggregation buffers together, so
// follow-on requests batch naturally.
//
// All storage is reused across strips: the per-owner lists and the owner
// order ring reset in place when they drain, so steady-state scheduling
// allocates nothing on the host.
type ownerQueue struct {
	lists []ownerList // indexed by owner node id
	order []int       // FIFO of owners with queued entries
	oHead int
	count int
}

// ownerList is one owner's run list (a FIFO with in-place reset).
type ownerList struct {
	items  []readyEntry
	head   int
	queued bool // present in the owner FIFO
}

func (q *ownerQueue) init(nodes int) {
	if len(q.lists) != nodes {
		q.lists = make([]ownerList, nodes)
	}
}

func (q *ownerQueue) len() int { return q.count }

// push appends a ready thread to its owner's run list, enqueueing the owner
// on first entry. Entries arriving for the owner currently being served
// extend its run (same-owner contiguity is preserved, not re-queued).
func (q *ownerQueue) push(owner int, e readyEntry) {
	l := &q.lists[owner]
	l.items = append(l.items, e)
	if !l.queued {
		l.queued = true
		q.order = append(q.order, owner)
	}
	q.count++
}

// pop removes the next thread: the head of the frontmost owner's run list.
func (q *ownerQueue) pop() readyEntry {
	o := q.order[q.oHead]
	l := &q.lists[o]
	e := l.items[l.head]
	l.items[l.head] = readyEntry{} // release references
	l.head++
	q.count--
	if l.head == len(l.items) {
		l.items = l.items[:0]
		l.head = 0
		l.queued = false
		q.oHead++
		if q.oHead == len(q.order) {
			q.order = q.order[:0]
			q.oHead = 0
		}
	}
	return e
}
