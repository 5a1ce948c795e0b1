package cluster

import (
	"fmt"
	"sync"

	"resilience/internal/obs"
)

// mailbox implements matched point-to-point messaging with per-channel
// FIFO ordering, the semantics block-row CG's halo exchange needs.
// Payload buffers are pooled: Send copies into a pooled buffer and
// RecvInto returns it after copying out, so a steady-state halo exchange
// performs no allocations.
type mailbox struct {
	rt     *Runtime
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[mkey]*msgQueue
	pool   sync.Pool // of *payload
	dead   bool

	sleepers sleepers
}

type mkey struct{ from, to, tag int }

// msgQueue is one (from, to, tag) channel's FIFO. Queues are looked up
// once per post/dequeue and then mutated through the pointer, so the
// steady-state halo exchange pays one map access per message end, not
// one per touch.
type msgQueue struct {
	msgs []message
}

type message struct {
	pl     *payload
	arrive float64 // virtual arrival time at the receiver
}

// payload is a pooled message buffer. Pooling pointers to the struct
// (rather than slices) avoids boxing a fresh interface value on every
// Put.
type payload struct {
	data []float64
}

func newMailbox(rt *Runtime) *mailbox {
	mb := &mailbox{rt: rt, queues: make(map[mkey]*msgQueue)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// queue returns (creating if needed) the FIFO for k. Callers must hold
// the mailbox locked.
func (mb *mailbox) queue(k mkey) *msgQueue {
	q := mb.queues[k]
	if q == nil {
		q = &msgQueue{}
		mb.queues[k] = q
	}
	return q
}

func (mb *mailbox) getPayload(n int) *payload {
	pl, _ := mb.pool.Get().(*payload)
	if pl == nil {
		pl = &payload{}
	}
	if cap(pl.data) < n {
		pl.data = make([]float64, n)
	}
	pl.data = pl.data[:n]
	return pl
}

func (mb *mailbox) putPayload(pl *payload) {
	mb.pool.Put(pl)
}

func (mb *mailbox) abort() {
	mb.mu.Lock()
	mb.dead = true
	mb.rt.release(&mb.sleepers)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// Send transmits a copy of data to rank `to` with the given tag. The
// sender's clock advances by the injection cost; the message carries its
// modeled arrival time.
//
// Aliasing contract: Send copies data into an internal buffer before
// returning, so the caller may immediately reuse or overwrite data. Code
// that reuses one staging buffer across consecutive Sends (as the fused
// halo exchange does) relies on this copy; TestSendCopiesPayload pins it.
func (c *Comm) Send(to, tag int, data []float64) {
	c.checkAbort()
	if to < 0 || to >= c.rt.p {
		panic(fmt.Sprintf("cluster: Send to invalid rank %d", to))
	}
	cost := c.rt.plat.P2PTime(int64(8 * len(data)))
	if c.obs != nil {
		c.obs.Span(obs.SpanSend, c.clock, cost)
		c.obs.AddSend(int64(8 * len(data)))
	}
	// The sender is occupied while injecting the message.
	c.ElapseActive(cost)
	if c.clock > c.nicFree {
		c.nicFree = c.clock
	}
	c.post(to, tag, data, c.clock)
}

// post copies data into a pooled payload and enqueues it with the given
// arrival time.
func (c *Comm) post(to, tag int, data []float64, arrive float64) {
	mb := c.rt.mail
	pl := mb.getPayload(len(data))
	copy(pl.data, data)
	msg := message{pl: pl, arrive: arrive}

	mb.mu.Lock()
	q := mb.queue(mkey{from: c.rank, to: to, tag: tag})
	q.msgs = append(q.msgs, msg)
	mb.rt.release(&mb.sleepers)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// SendReq is the completion handle returned by ISend.
type SendReq struct {
	arrive float64
}

// Wait completes the send. Under the model the payload is copied at post
// time, so the buffer is already reusable and Wait returns immediately
// without advancing the clock; it exists for API symmetry with RecvReq.
func (r *SendReq) Wait() {}

// Arrive returns the modeled time at which the message lands at the
// receiver.
func (r *SendReq) Arrive() float64 { return r.arrive }

// ISend posts a nonblocking send. Unlike Send it charges no CPU time:
// the NIC carries the injection, serializing with any earlier posted
// sends, so a burst of k ISends has its last message arrive k wire-times
// after the first injection starts. Overlapped spans therefore cost
// max(communication, concurrent compute) rather than their sum.
//
// Aliasing contract: like Send, ISend copies data before returning, so
// the buffer may be reused immediately. Callers should still prefer
// per-destination owned buffers (as the overlapped halo exchange does)
// so the code stays correct if a zero-copy transport is ever modeled.
func (c *Comm) ISend(to, tag int, data []float64) SendReq {
	c.checkAbort()
	if to < 0 || to >= c.rt.p {
		panic(fmt.Sprintf("cluster: ISend to invalid rank %d", to))
	}
	cost := c.rt.plat.P2PTime(int64(8 * len(data)))
	start := c.clock
	if c.nicFree > start {
		start = c.nicFree
	}
	arrive := start + cost
	c.nicFree = arrive
	// Counted but not spanned: the NIC, not the CPU, owns the injection
	// interval, so it has no extent on the rank's timeline.
	if c.obs != nil {
		c.obs.AddSend(int64(8 * len(data)))
	}
	c.post(to, tag, data, arrive)
	return SendReq{arrive: arrive}
}

// RecvReq is the completion handle returned by IRecvInto. Wait must be
// called exactly once; the destination buffer holds the payload only
// after Wait returns.
type RecvReq struct {
	c    *Comm
	from int
	tag  int
	dst  []float64
	done bool
}

// IRecvInto posts a nonblocking receive into dst. Posting costs no
// virtual time and does not block; the message is matched, the clock
// advanced to its arrival, and the payload copied when Wait is called.
func (c *Comm) IRecvInto(from, tag int, dst []float64) RecvReq {
	c.checkAbort()
	if from < 0 || from >= c.rt.p {
		panic(fmt.Sprintf("cluster: IRecvInto from invalid rank %d", from))
	}
	return RecvReq{c: c, from: from, tag: tag, dst: dst}
}

// Wait blocks until the posted receive's message is available, advances
// the virtual clock to its arrival time (charged at wait power), and
// copies the payload into the destination buffer.
func (r *RecvReq) Wait() {
	if r.done {
		panic("cluster: RecvReq.Wait called twice")
	}
	r.done = true
	c := r.c
	c.checkAbort()
	msg := c.dequeue(r.from, r.tag)
	c.advanceTo(msg.arrive, obs.SpanRecv)
	if c.obs != nil {
		c.obs.AddRecv(int64(8 * len(msg.pl.data)))
	}
	if len(msg.pl.data) != len(r.dst) {
		panic(fmt.Sprintf("cluster: IRecvInto got %d values for a %d-length buffer", len(msg.pl.data), len(r.dst)))
	}
	copy(r.dst, msg.pl.data)
	c.rt.mail.putPayload(msg.pl)
}

// dequeue pops the oldest message on (from→rank, tag), blocking until one
// arrives. The pop shifts the queue down in place instead of re-slicing
// from the front, keeping the backing array anchored so a sender running
// several exchanges ahead of its receiver never forces the queue to
// reallocate on append.
func (c *Comm) dequeue(from, tag int) message {
	if from < 0 || from >= c.rt.p {
		panic(fmt.Sprintf("cluster: Recv from invalid rank %d", from))
	}
	mb := c.rt.mail
	k := mkey{from: from, to: c.rank, tag: tag}
	mb.mu.Lock()
	mq := mb.queue(k)
	for len(mq.msgs) == 0 && !mb.dead {
		// Deadlock check: an exited sender can never post the message we
		// are waiting for. Abort with a diagnostic instead of hanging; the
		// abort sets mb.dead, so continue (not wait) past our own wake-up.
		if c.rt.isExited(from) {
			err := fmt.Errorf("cluster: deadlock: rank %d blocked receiving from rank %d (tag %d), which exited without sending", c.rank, from, tag)
			mb.mu.Unlock()
			c.rt.abort(err)
			mb.mu.Lock()
			continue
		}
		c.rt.sleep(c.rank, rankWait{mail: true, key: k}, mb.cond, &mb.sleepers)
	}
	if mb.dead {
		mb.mu.Unlock()
		panic(abortPanic{err: fmt.Errorf("cluster: recv on aborted runtime")})
	}
	q := mq.msgs
	msg := q[0]
	n := copy(q, q[1:])
	q[n] = message{}
	mq.msgs = q[:n]
	mb.mu.Unlock()
	return msg
}

// Recv blocks until a message from rank `from` with the given tag is
// available, advances the virtual clock to its arrival time (charged at
// wait power), and returns the payload as a fresh slice.
func (c *Comm) Recv(from, tag int) []float64 {
	c.checkAbort()
	msg := c.dequeue(from, tag)
	c.advanceTo(msg.arrive, obs.SpanRecv)
	if c.obs != nil {
		c.obs.AddRecv(int64(8 * len(msg.pl.data)))
	}
	out := make([]float64, len(msg.pl.data))
	copy(out, msg.pl.data)
	c.rt.mail.putPayload(msg.pl)
	return out
}

// RecvInto is Recv without the allocation: the payload is copied into
// dst, which must match the message length exactly, and the internal
// buffer is recycled.
func (c *Comm) RecvInto(from, tag int, dst []float64) {
	c.checkAbort()
	msg := c.dequeue(from, tag)
	c.advanceTo(msg.arrive, obs.SpanRecv)
	if c.obs != nil {
		c.obs.AddRecv(int64(8 * len(msg.pl.data)))
	}
	if len(msg.pl.data) != len(dst) {
		panic(fmt.Sprintf("cluster: RecvInto got %d values for a %d-length buffer", len(msg.pl.data), len(dst)))
	}
	copy(dst, msg.pl.data)
	c.rt.mail.putPayload(msg.pl)
}

// SendInts / RecvInts move integer payloads (setup-phase exchanges of
// column index lists).
func (c *Comm) SendInts(to, tag int, data []int) {
	f := make([]float64, len(data))
	for i, v := range data {
		f[i] = float64(v)
	}
	c.Send(to, tag, f)
}

// RecvInts receives an integer payload sent with SendInts.
func (c *Comm) RecvInts(from, tag int) []int {
	f := c.Recv(from, tag)
	out := make([]int, len(f))
	for i, v := range f {
		out[i] = int(v)
	}
	return out
}
