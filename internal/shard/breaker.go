package shard

import (
	"sync"
	"time"
)

// breakerState is one worker's circuit-breaker position.
type breakerState int

const (
	// brClosed admits attempts normally.
	brClosed breakerState = iota
	// brOpen withdraws the worker; attempts wait out the cooldown.
	brOpen
	// brHalfOpen admits one probe attempt per Run after the cooldown: the
	// next success closes the breaker, the next failure re-opens it.
	brHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case brClosed:
		return "closed"
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// breaker is the per-worker circuit breaker: consecutive transient/corrupt
// failures trip it open, the cooldown re-admits it half-open, and the
// half-open probe's outcome decides between closing and re-opening. It is
// shared across concurrent Runs on one Pool, so every transition holds the
// mutex.
type breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	st          breakerState
	consecutive int
	openedAt    time.Time
}

func (b *breaker) state() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

// admission reports how many attempts the worker may run at once in one
// Run — window when closed, a single probe when half-open — or, while the
// breaker is open, none and the remaining cooldown. An open breaker whose
// cooldown elapsed turns half-open.
func (b *breaker) admission() (tokens int, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st == brOpen {
		if rem := b.cooldown - time.Since(b.openedAt); rem > 0 {
			return 0, rem
		}
		b.st = brHalfOpen
	}
	if b.st == brHalfOpen {
		return 1, 0
	}
	return window, 0
}

// success closes the breaker and clears the failure streak.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.st = brClosed
	b.consecutive = 0
}

// fail records one breaker-relevant failure and reports whether it tripped
// the breaker open (counted once; every Run then withdraws the worker's
// tokens until the half-open probe). A half-open probe failure re-opens
// immediately.
func (b *breaker) fail() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.st == brOpen {
		return false
	}
	if b.st == brHalfOpen || b.consecutive >= b.threshold {
		b.st = brOpen
		b.openedAt = time.Now()
		return true
	}
	return false
}

// reset fully closes the breaker (a health probe answered).
func (b *breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.st = brClosed
	b.consecutive = 0
}

// forceOpen trips the breaker open (a health probe failed); reports
// whether this was a transition.
func (b *breaker) forceOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st == brOpen {
		return false
	}
	b.st = brOpen
	b.openedAt = time.Now()
	return true
}
