// Package pool is the repo's bounded worker pool: the parallel
// execution core that power sweeps, candidate evaluation, and the lint
// driver shard work onto.
//
// Design constraints, in order:
//
//   - Certified lifecycle. The pool is the first client of the concflow
//     analyzers (lockorder, goleak, parsafe): workers terminate through
//     a close-signal select that goleak can prove, Close is idempotent
//     and joins every worker, and the pool takes no lock while another
//     is held. `iprunelint ./...` runs over this package in CI.
//   - Zero-alloc steady state. ForEach reuses one batch descriptor per
//     pool and hands workers work by atomic index draw, so a sweep that
//     calls ForEach per power point allocates nothing per call
//     (testing.AllocsPerRun-pinned).
//   - Containment. A panicking task does not kill the process or wedge
//     the pool: the first panic is captured with its stack, the batch
//     drains, and ForEach returns it as a *PanicError. The pool stays
//     usable.
//
// Goroutines are owned by the struct that spawned them, shut down by
// one close, and joined before Close returns.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by ForEach after Close.
var ErrClosed = errors.New("pool: closed")

// PanicError carries the first panic recovered from a task, with the
// goroutine stack captured at the panic site.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // debug-style stack of the panicking worker
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task panicked: %v", e.Value)
}

// Pool is a bounded worker pool. The zero value is not usable; call New.
// All methods are safe for concurrent use, but batches are serialized:
// one ForEach runs at a time.
type Pool struct {
	workers int
	tasks   chan *batch
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool

	mu sync.Mutex // serializes ForEach and guards b against reconfiguration
	b  batch
}

// batch is the reusable work descriptor for one ForEach call. Workers
// draw indices [0,n) from next; the last field write in ForEach
// happens-before the channel send that hands the batch to a worker.
type batch struct {
	ctx  context.Context
	fn   func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup // workers attached to this batch
	pan  atomic.Pointer[PanicError]
}

// New returns a started pool. workers <= 0 means runtime.GOMAXPROCS(0).
// The calling goroutine also executes tasks during ForEach, so total
// parallelism is workers+1.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan *batch),
		stop:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the number of pool-owned workers (excluding the
// ForEach caller).
func (p *Pool) Workers() int { return p.workers }

// worker pulls batches until Close. The stop select is the provable
// termination path: Close closes p.stop exactly once.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case b := <-p.tasks:
			b.run()
			b.wg.Done()
		}
	}
}

// ForEach runs fn(i) for every i in [0,n), fanning the indices across
// the pool's workers plus the calling goroutine. It returns when every
// started task has finished: on context cancellation remaining indices
// are abandoned and ctx.Err() is returned; if a task panicked the first
// panic is returned as a *PanicError after the batch drains. A nil
// return means all n tasks ran. Steady-state calls do not allocate.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(int)) error {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b := &p.b
	b.ctx = ctx
	b.fn = fn
	b.n = int64(n)
	b.next.Store(0)
	b.pan.Store(nil)

	// Hand the batch to at most n workers — extra workers would have
	// nothing to draw. Sends block only until an idle worker's select
	// fires; Close cannot race (it takes p.mu).
	fan := p.workers
	if n < fan {
		fan = n
	}
	b.wg.Add(fan)
	for i := 0; i < fan; i++ {
		p.tasks <- b
	}
	b.run() // the caller participates
	b.wg.Wait()

	err := b.ctx.Err()
	if pe := b.pan.Load(); pe != nil {
		err = pe
	}
	b.ctx = nil
	b.fn = nil // release the closure; the descriptor outlives the batch
	return err
}

// run draws indices until the batch is exhausted or canceled.
func (b *batch) run() {
	for b.ctx.Err() == nil {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.call(int(i))
	}
}

// call executes one task with panic containment: the first panic is
// recorded with its stack and the rest of the batch is abandoned so
// ForEach returns promptly.
func (b *batch) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			buf = buf[:runtime.Stack(buf, false)]
			if b.pan.CompareAndSwap(nil, &PanicError{Value: r, Stack: buf}) {
				b.next.Store(b.n) // abandon remaining indices
			}
		}
	}()
	b.fn(i)
}

// Close shuts the pool down and joins every worker. Idempotent; safe to
// call concurrently with ForEach (it waits for the batch to finish).
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
}
