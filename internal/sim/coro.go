//go:build go1.23

package sim

import "iter"

// coro is a process body running as a coroutine: resume switches straight
// into the body and returns when the body yields or returns, without a trip
// through the Go scheduler (runtime coroswitch under iter.Pull). Successive
// resumes may come from different goroutines, never concurrently.
//
// This file carries the go1.23 build tag because go.mod stays at go 1.22
// (bench/go.mod is frozen there and refuses a dependency with a newer go
// line); the tag raises this one file's language version so vet accepts
// iter.Pull.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// newCoro creates the coroutine for process p with body fn, parked until the
// first resume. A coroutine that is never resumed to completion stays parked
// for the life of the program.
func newCoro(p *Proc, fn func(p *Proc)) *coro {
	c := &coro{}
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		fn(p)
	})
	return c
}

// resume runs the body until its next pause and reports whether it paused
// (true) or returned (false). A panic in the body propagates to the caller.
func (c *coro) resume() bool {
	_, paused := c.next()
	return paused
}

// pause hands control back to the goroutine inside resume. It must be called
// from the body.
func (c *coro) pause() { c.yield(struct{}{}) }
