//go:build go1.23

package sim

import "iter"

// coro is a process's coroutine: resume switches straight into the body and
// returns when the body yields or returns, without a trip through the Go
// scheduler (runtime coroswitch under iter.Pull). Successive resumes may come
// from different goroutines, never concurrently.
//
// One coroutine serves every run of its process: its goroutine loops over
// bodies, parking between two of them, until it is resumed without one
// (stop). So a phase hands its process a new body, not a new coroutine.
//
// This file carries the go1.23 build tag because go.mod stays at go 1.22
// (bench/go.mod is frozen there and refuses a dependency with a newer go
// line); the tag raises this one file's language version so vet accepts
// iter.Pull.
type coro struct {
	next func() (struct{}, bool)
	// yield pauses the running body. It is set only while a body runs, so
	// nil means the coroutine is parked outside any body — before its first
	// or after one returned — where stop may end it.
	yield func(struct{}) bool
	// body is the run the coroutine is in or is about to start, and p the
	// process it runs as; both nil once that body has returned, so a
	// coroutine parked between runs holds nothing of its engine.
	body func(p *Proc)
	p    *Proc
}

// newCoro creates the coroutine for process p with body fn, parked until the
// first resume. Its goroutine lives until stop; one left inside a body that
// never finishes stays parked for the life of the program.
func newCoro(p *Proc, fn func(p *Proc)) *coro {
	c := &coro{body: fn, p: p}
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		for c.body != nil {
			c.yield = yield
			c.body(c.p)
			c.yield, c.body, c.p = nil, nil, nil
			yield(struct{}{})
		}
	})
	return c
}

// resume runs the body until its next pause and reports whether it paused
// (true) or returned (false). A panic in the body propagates to the caller
// and ends the coroutine.
func (c *coro) resume() bool {
	c.next()
	return c.body != nil
}

// pause hands control back to the goroutine inside resume. It must be called
// from the body.
func (c *coro) pause() { c.yield(struct{}{}) }

// idle reports whether the coroutine is parked outside any body.
func (c *coro) idle() bool { return c.yield == nil }

// start installs the next run's body on an idle coroutine.
func (c *coro) start(p *Proc, fn func(p *Proc)) { c.body, c.p = fn, p }

// stop ends an idle coroutine: resumed without a body, its goroutine
// returns.
func (c *coro) stop() {
	c.body, c.p = nil, nil
	c.next()
}
