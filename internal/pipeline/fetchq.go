package pipeline

// fetchQueueSize bounds the fetch queue, as gem5's O3 CPU (the paper's
// substrate) bounds its fetchQueueSize: fetch stops pushing once the queue
// is full and resumes as dispatch drains it. 64 slots is 8x the default
// width and 4x the widest swept one. It must stay a power of two (the ring
// indexes with a mask).
const fetchQueueSize = 64

// fetchQueue is the FIFO of fetched instructions awaiting dispatch, a fixed
// ring of fetchQueueSize slots.
type fetchQueue struct {
	slots   [fetchQueueSize]fetchSlot
	head, n int
}

func (q *fetchQueue) len() int { return q.n }

func (q *fetchQueue) full() bool { return q.n == fetchQueueSize }

// at returns the i-th oldest slot; i must be below len().
func (q *fetchQueue) at(i int) *fetchSlot { return &q.slots[(q.head+i)&(fetchQueueSize-1)] }

// front returns the oldest slot; the queue must be non-empty.
func (q *fetchQueue) front() *fetchSlot { return q.at(0) }

// push appends a slot; the queue must not be full.
func (q *fetchQueue) push(s fetchSlot) {
	*q.at(q.n) = s
	q.n++
}

func (q *fetchQueue) pop() {
	q.head = (q.head + 1) & (fetchQueueSize - 1)
	q.n--
}

// clear empties the queue (squash and redirect flush the whole front end).
func (q *fetchQueue) clear() { q.head, q.n = 0, 0 }
