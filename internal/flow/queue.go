package flow

import "scream/internal/des"

// packet is one end-to-end data unit moving through the queue network.
type packet struct {
	created  des.Time // arrival at the source
	enqueued des.Time // arrival at the current queue (eligibility gate)
}

// blockWords is the size of a queue block in 8-byte words: blockWords-1
// packet words and the link to the next block. Short queues hold one
// block each, so 256-byte blocks keep them small; saturated queues use
// their blocks fully either way.
const blockWords = 32

// maxSlab is the most blocks the pool allocates at once (32 KiB).
const maxSlab = 128

// block is one fixed-size piece of a node queue: packet words, and the link
// to the queue's next block, or to the next free block while it is pooled.
type block struct {
	w    [blockWords - 1]des.Time
	next *block
}

// pool hands out one run's queue blocks. It allocates them in slabs, the
// first of one block and each next one twice the last, up to maxSlab, and
// takes back every block a queue empties. So a lightly loaded run allocates
// a few blocks, a saturated one keeps its queued words in full blocks plus
// each queue's partly used head and tail, and a run never allocates more
// than twice the blocks it held at once, or one maxSlab more.
type pool struct {
	free *block
	slab int // blocks in the last slab
}

func (p *pool) get() *block {
	if p.free == nil {
		p.slab = min(max(2*p.slab, 1), maxSlab)
		slab := make([]block, p.slab)
		for i := range slab[:p.slab-1] {
			slab[i].next = &slab[i+1]
		}
		p.free = &slab[0]
	}
	b := p.free
	p.free, b.next = b.next, nil
	return b
}

// put takes back the chain of blocks first ... last.
func (p *pool) put(first, last *block) {
	last.next = p.free
	p.free = first
}

// queue is a node's FIFO of packets, stored as words in pooled blocks. A
// packet whose created and enqueued times are equal (an own arrival) is one
// word, its time; any other (a relayed packet) is two, ^created and then
// enqueued. Times are never negative, so the sign of a packet's first word
// tells the two apart, and both decode to exactly the packet pushed.
type queue struct {
	head, tail *block // nil while the queue is empty
	r, w       int    // next word to read in head, to write in tail
	n          int    // packets queued
}

func (q *queue) len() int { return q.n }

func (q *queue) push(p *pool, pk packet) {
	if pk.created != pk.enqueued {
		q.put(p, ^pk.created)
	}
	q.put(p, pk.enqueued)
	q.n++
}

// peek returns the oldest packet; its second word may open the next block.
func (q *queue) peek() packet {
	x := q.head.w[q.r]
	switch {
	case x >= 0:
		return packet{created: x, enqueued: x}
	case q.r+1 < len(q.head.w):
		return packet{created: ^x, enqueued: q.head.w[q.r+1]}
	default:
		return packet{created: ^x, enqueued: q.head.next.w[0]}
	}
}

func (q *queue) pop(p *pool) packet {
	q.n--
	x := q.take(p)
	if x >= 0 {
		return packet{created: x, enqueued: x}
	}
	return packet{created: ^x, enqueued: q.take(p)}
}

// drop empties the queue (a failed node loses everything it held), gives
// its blocks back to p and returns how many packets were lost.
func (q *queue) drop(p *pool) int {
	n := q.n
	if q.head != nil {
		p.put(q.head, q.tail)
	}
	*q = queue{}
	return n
}

// put appends one word, opening a block from p when the tail is full.
func (q *queue) put(p *pool, x des.Time) {
	switch {
	case q.tail == nil:
		q.head = p.get()
		q.tail, q.r, q.w = q.head, 0, 0
	case q.w == len(q.tail.w):
		b := p.get()
		q.tail.next = b
		q.tail, q.w = b, 0
	}
	q.tail.w[q.w] = x
	q.w++
}

// take removes the oldest word, giving each block it empties back to p.
func (q *queue) take(p *pool) des.Time {
	b := q.head
	x := b.w[q.r]
	q.r++
	switch {
	case b == q.tail && q.r == q.w:
		p.put(b, b)
		q.head, q.tail = nil, nil
	case q.r == len(b.w):
		q.head, q.r = b.next, 0
		p.put(b, b)
	}
	return x
}
