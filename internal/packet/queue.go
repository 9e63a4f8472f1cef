package packet

import "errors"

// Queue is a FIFO of packets linked through the packets themselves (an
// intrusive queue). It holds only its head and tail: a drained queue
// keeps no memory, whatever depth it reached, and Push and Pop never
// allocate. The zero Queue is empty and ready to use.
//
// A packet sits in at most one Queue at a time. Push of a packet that is
// already in one panics, and so does Release of a queued packet. A
// Queue is not safe for concurrent use.
type Queue struct {
	head, tail *Packet
}

// end is the link of a queue's tail packet. A queued packet's link is
// never nil, so whether a packet is queued is one compare.
var end Packet

// The guards panic with prebuilt errors. A string constant boxed for a
// panic is reported as escaping to the heap wherever Push inlines, which
// the escape audit (escape.golden) would count as a new escape.
var (
	errPushQueued    = errors.New("packet: pushed while already in a queue")
	errReleaseQueued = errors.New("packet: released while still in a queue")
)

// Push appends p at the tail of q.
//
//hot:path
func (q *Queue) Push(p *Packet) {
	if p.next != nil {
		panic(errPushQueued)
	}
	p.next = &end
	if q.head == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// Pop removes and returns the head of q, or nil if q is empty.
//
//hot:path
func (q *Queue) Pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	if p.next == &end {
		q.head, q.tail = nil, nil
	} else {
		q.head = p.next
	}
	p.next = nil
	return p
}

// Peek returns the head of q without removing it, or nil if q is empty.
//
//hot:path
func (q *Queue) Peek() *Packet { return q.head }

// Empty reports whether q holds no packet.
//
//hot:path
func (q *Queue) Empty() bool { return q.head == nil }
