package shard

import "time"

// admitDelay is the wait half of admission: 0 when the worker may take
// attempts now, otherwise the remaining cooldown.
func (b *breaker) admitDelay() time.Duration {
	_, d := b.admission()
	return d
}

// probe moves an open breaker to half-open without waiting out the
// cooldown.
func (b *breaker) probe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st == brOpen {
		b.st = brHalfOpen
	}
}
