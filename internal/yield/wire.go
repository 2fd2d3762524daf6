package yield

import (
	"repro/internal/shard/wire"
)

// Binary wire codec for SweepTally batches — the per-range integer
// tallies the sharded yield loop merges. The frame is flat
// little-endian (see internal/shard/wire): a u32 tally count, then per
// tally a presence-flagged FirstZero list and a presence-flagged
// FirstTuned list (on a stratified wave, each list holds one histogram per
// stratum; see SweepTally). Zero-only tallies carry FirstTuned == nil, and the
// codec preserves nil vs present exactly: CheckWave tells the wave kinds
// apart by it, so a codec that normalized one into the other would reject
// every partial of that kind.

// AppendTallies appends the binary encoding of ts to buf and returns
// the grown slice. Encoding into a reused buffer is allocation-free
// once the buffer has warmed to the batch size.
//
//contract:deterministic
//contract:allocfree
func AppendTallies(buf []byte, ts []SweepTally) []byte {
	buf = wire.AppendU32(buf, uint32(len(ts)))
	for i := range ts {
		buf = wire.AppendBool(buf, ts[i].FirstZero != nil)
		if ts[i].FirstZero != nil {
			buf = wire.AppendInts(buf, ts[i].FirstZero)
		}
		buf = wire.AppendBool(buf, ts[i].FirstTuned != nil)
		if ts[i].FirstTuned != nil {
			buf = wire.AppendInts(buf, ts[i].FirstTuned)
		}
	}
	return buf
}

// A TallyBuf is the reusable decode arena for SweepTally batches: the
// tally slice plus a flat int slab that every decoded counter slice
// aliases. The decoded batch stays valid until the next Decode.
type TallyBuf struct {
	tallies []SweepTally
	ints    []int
}

// emptyInts is the canonical present-but-empty counter slice, so an
// empty field decodes non-nil without touching the slab.
var emptyInts = []int{}

// intsField decodes one presence-flagged counter list into b's slab.
//
//contract:deterministic
//contract:allocfree
func (b *TallyBuf) intsField(r *wire.Reader) []int {
	if !r.Bool() || r.Err() != nil {
		return nil
	}
	start := len(b.ints)
	b.ints = r.Ints(b.ints)
	if len(b.ints) == start {
		return emptyInts
	}
	return b.ints[start:len(b.ints):len(b.ints)]
}

// Decode decodes one tally batch from r into b's reused storage and
// returns the batch. The returned tallies alias b — merge them before
// the next Decode on the same buffer. On a malformed frame the Reader
// latches an error (check r.Err/r.Done) and Decode returns nil;
// arbitrary input never panics.
//
//contract:deterministic
//contract:allocfree
func (b *TallyBuf) Decode(r *wire.Reader) []SweepTally {
	b.tallies = b.tallies[:0]
	b.ints = b.ints[:0]
	// Two presence bytes minimum per tally.
	n := r.Count(2)
	for i := 0; i < n; i++ {
		var t SweepTally
		t.FirstZero = b.intsField(r)
		t.FirstTuned = b.intsField(r)
		if r.Err() != nil {
			return nil
		}
		b.tallies = append(b.tallies, t)
	}
	if r.Err() != nil {
		return nil
	}
	return b.tallies
}
