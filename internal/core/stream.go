package core

import (
	"context"
	"sync"
	"time"

	"tatooine/internal/value"
)

// BatchStream is a bounded channel of row batches with an error/done
// side-band — the tuple-granularity handoff of the streaming executor.
// The producer Sends batches and Closes with its terminal error; the
// consumer reads batches until the channel drains, and the terminal
// error comes with the end. Either side can end the flow early: the
// consumer Cancels (a LIMIT reached its bound, a client disconnected)
// and every pending Send returns false, so the producer unwinds instead
// of blocking on a channel nobody reads; the producer's context
// cancelling unblocks Send the same way.
type BatchStream struct {
	ch   chan []value.Row
	done chan struct{} // closed by Cancel: the consumer is gone

	closeOnce  sync.Once
	cancelOnce sync.Once

	mu  sync.Mutex
	err error
}

// NewBatchStream builds a stream buffering up to capacity batches
// before Send blocks (backpressure).
func NewBatchStream(capacity int) *BatchStream {
	if capacity < 1 {
		capacity = 1
	}
	return &BatchStream{
		ch:   make(chan []value.Row, capacity),
		done: make(chan struct{}),
	}
}

// Send delivers one batch, blocking while the channel is full. It
// reports false when the consumer cancelled the stream or ctx ended —
// the producer should stop producing. Time spent blocked on a full
// channel — the consumer applying backpressure — is observed into
// tat_stream_stall_seconds; the non-blocking fast path costs nothing.
func (s *BatchStream) Send(ctx context.Context, batch []value.Row) bool {
	if len(batch) == 0 {
		return true
	}
	select {
	case s.ch <- batch:
		return true
	case <-s.done:
		return false
	case <-ctx.Done():
		return false
	default:
	}
	start := time.Now()
	select {
	case s.ch <- batch:
		streamStallSeconds.ObserveSince(start)
		return true
	case <-s.done:
		return false
	case <-ctx.Done():
		return false
	}
}

// Close ends the stream with err as its terminal status (nil for a
// clean end of input). The error is published before the channel
// closes, so a consumer that sees the channel drained reads it safely.
// Close is idempotent; only the first call's error sticks.
func (s *BatchStream) Close(err error) {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		close(s.ch)
	})
}

// next returns the next batch; done=true means the stream closed and
// err is its terminal status.
func (s *BatchStream) next() (batch []value.Row, done bool, err error) {
	if batch, ok := <-s.ch; ok {
		return batch, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return nil, true, s.err
}

// Cancel tells the producer the consumer will read no further batches.
// Idempotent; safe to call concurrently with Send and Close.
func (s *BatchStream) Cancel() { s.cancelOnce.Do(func() { close(s.done) }) }

// buffered reports whether next would return without blocking. Best
// effort: a closed-but-drained channel reads as not buffered.
func (s *BatchStream) buffered() bool { return len(s.ch) > 0 }

// nodeBuffer is the progressive result of one streaming DAG node that
// other nodes consume: rows append as probe batches land, each append
// waking the blocked cursors, and close publishes completion (or the
// node's error). Unlike BatchStream it never blocks the producer and
// supports any number of independent readers — a node's output can
// feed several downstream bind joins AND the root join's build side.
// Memory-wise it holds exactly what the materialize-then-join executor
// held: one relation per node.
type nodeBuffer struct {
	mu   sync.Mutex
	rows []value.Row
	done bool
	err  error
	wake chan struct{} // closed and replaced on every append/close (broadcast)
}

func newNodeBuffer() *nodeBuffer {
	return &nodeBuffer{wake: make(chan struct{})}
}

// emit appends rows and wakes every waiting cursor.
func (b *nodeBuffer) emit(rows []value.Row) {
	if len(rows) == 0 {
		return
	}
	b.mu.Lock()
	b.rows = append(b.rows, rows...)
	b.broadcastLocked()
	b.mu.Unlock()
}

// close marks the buffer complete with the node's terminal error.
// Only the first call's status sticks.
func (b *nodeBuffer) close(err error) {
	b.mu.Lock()
	if !b.done {
		b.done = true
		b.err = err
		b.broadcastLocked()
	}
	b.mu.Unlock()
}

func (b *nodeBuffer) broadcastLocked() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// cursor returns an independent reader positioned at the first row.
func (b *nodeBuffer) cursor(ctx context.Context) *bufCursor {
	return &bufCursor{buf: b, ctx: ctx}
}

// wait blocks until the buffer completes and returns its terminal
// error — for a node that must run after its dependencies without
// reading their rows.
func (b *nodeBuffer) wait(ctx context.Context) error {
	for {
		b.mu.Lock()
		done, err, wake := b.done, b.err, b.wake
		b.mu.Unlock()
		if done {
			return err
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// bufCursor reads a nodeBuffer in arrival-order chunks, blocking when
// it has consumed everything emitted so far and the buffer is still
// open. Each cursor is single-consumer; a buffer can have many.
type bufCursor struct {
	buf *nodeBuffer
	ctx context.Context
	pos int
}

// next returns the rows emitted since the previous call. done=true
// means the buffer completed (err is its terminal status) or ctx ended.
func (c *bufCursor) next() (chunk []value.Row, done bool, err error) {
	for {
		c.buf.mu.Lock()
		if c.pos < len(c.buf.rows) {
			chunk = c.buf.rows[c.pos:len(c.buf.rows):len(c.buf.rows)]
			c.pos = len(c.buf.rows)
			c.buf.mu.Unlock()
			return chunk, false, nil
		}
		if c.buf.done {
			err = c.buf.err
			c.buf.mu.Unlock()
			return nil, true, err
		}
		wake := c.buf.wake
		c.buf.mu.Unlock()
		select {
		case <-wake:
		case <-c.ctx.Done():
			return nil, true, c.ctx.Err()
		}
	}
}

// buffered reports whether next would return rows without blocking.
func (c *bufCursor) buffered() bool {
	c.buf.mu.Lock()
	defer c.buf.mu.Unlock()
	return c.pos < len(c.buf.rows)
}

// ---------- chunk iterator ----------

// chunkReader is a chunked handoff between DAG nodes: the sink's
// BatchStream or a cursor over a node's progressive output.
type chunkReader interface {
	// next returns the next chunk; done=true ends the input with err as
	// its terminal status.
	next() (chunk []value.Row, done bool, err error)
	// buffered reports whether next would return without blocking.
	buffered() bool
}

// chunkIterator adapts a chunkReader to the Iterator interface: the
// sink node's live output slots straight into the root join, and a
// downstream bind join consumes its dependency's progressive output,
// launching probes as soon as rows land instead of waiting for the node
// to materialize. Close runs cancel when set — on the sink's stream,
// that carries a downstream LIMIT's early termination back to the
// producer.
type chunkIterator struct {
	in     chunkReader
	cancel func()
	cur    []value.Row
	pos    int
	done   bool
}

func (it *chunkIterator) Open() error { return nil }

func (it *chunkIterator) Next() (value.Row, bool, error) {
	for {
		if it.pos < len(it.cur) {
			row := it.cur[it.pos]
			it.pos++
			return row, true, nil
		}
		if it.done {
			return nil, false, nil
		}
		chunk, done, err := it.in.next()
		if done {
			it.done = true
			return nil, false, err
		}
		it.cur, it.pos = chunk, 0
	}
}

func (it *chunkIterator) Close() error {
	if it.cancel != nil {
		it.cancel()
	}
	return nil
}

// Buffered reports whether Next would return without blocking.
func (it *chunkIterator) Buffered() bool {
	return it.done || it.pos < len(it.cur) || it.in.buffered()
}
