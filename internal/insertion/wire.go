package insertion

import (
	"repro/internal/shard/wire"
)

// Binary wire codec for SampleOutcome batches — the per-sample payload
// the sharded sample loop ships between processes. The frame is flat
// little-endian (see internal/shard/wire): a u32 outcome count, then per
// outcome a flag byte (feasible, self-loop, tuned-present), the
// truncated and NK counters, and the Tuning list as (ff, val) pairs.
// float64 values travel by bit pattern, so a decoded batch merges into
// byte-identical statistics exactly like its JSON twin.

const (
	outcomeFeasible = 1 << iota
	outcomeSelfLoop
	outcomeTuned // Tuned non-nil (nil vs empty survives the codec)
)

// AppendOutcomes appends the binary encoding of outs to buf and returns
// the grown slice. Encoding into a reused buffer is allocation-free once
// the buffer has warmed to the batch size.
//
//contract:deterministic
//contract:allocfree
func AppendOutcomes(buf []byte, outs []SampleOutcome) []byte {
	buf = wire.AppendU32(buf, uint32(len(outs)))
	for i := range outs {
		o := &outs[i]
		flags := uint8(0)
		if o.Feasible {
			flags |= outcomeFeasible
		}
		if o.SelfLoop {
			flags |= outcomeSelfLoop
		}
		if o.Tuned != nil {
			flags |= outcomeTuned
		}
		buf = wire.AppendU8(buf, flags)
		buf = wire.AppendInt(buf, o.Truncated)
		buf = wire.AppendInt(buf, o.NK)
		buf = wire.AppendU32(buf, uint32(len(o.Tuned)))
		for _, tn := range o.Tuned {
			buf = wire.AppendInt(buf, tn.FF)
			buf = wire.AppendF64(buf, tn.Val)
		}
	}
	return buf
}

// An OutcomeBuf is the reusable decode arena for SampleOutcome batches:
// the outcome slice and a flat Tuning slab that every decoded Tuned
// slice aliases. Reusing one buffer across decodes keeps the warm path
// allocation-free; the decoded batch stays valid until the next Decode.
type OutcomeBuf struct {
	outs    []SampleOutcome
	tunings []Tuning
}

// Decode decodes one outcome batch from r into b's reused storage and
// returns the batch. The returned outcomes and their Tuned slices alias
// b — copy them out before the next Decode on the same buffer. On a
// malformed frame the Reader latches an error (check r.Err/r.Done) and
// Decode returns nil; arbitrary input never panics.
//
//contract:deterministic
//contract:allocfree
func (b *OutcomeBuf) Decode(r *wire.Reader) []SampleOutcome {
	b.outs = b.outs[:0]
	b.tunings = b.tunings[:0]
	// Flag byte + truncated + NK + tuned count: 21 bytes minimum.
	n := r.Count(21)
	for i := 0; i < n; i++ {
		flags := r.U8()
		if flags&^(outcomeFeasible|outcomeSelfLoop|outcomeTuned) != 0 {
			// Unknown flag bits mean a frame from a different layout —
			// corrupt, not forward-compatible.
			r.Fail(wire.ErrValue)
			return nil
		}
		o := SampleOutcome{
			Feasible:  flags&outcomeFeasible != 0,
			SelfLoop:  flags&outcomeSelfLoop != 0,
			Truncated: r.Int(),
			NK:        r.Int(),
		}
		nt := r.Count(16)
		if r.Err() != nil {
			return nil
		}
		start := len(b.tunings)
		for j := 0; j < nt; j++ {
			b.tunings = append(b.tunings, Tuning{FF: r.Int(), Val: r.F64()})
		}
		if flags&outcomeTuned != 0 {
			o.Tuned = b.tunings[start:len(b.tunings):len(b.tunings)]
		} else if nt != 0 {
			r.Fail(wire.ErrValue) // tuned-absent flag with elements
			return nil
		}
		b.outs = append(b.outs, o)
	}
	if r.Err() != nil {
		return nil
	}
	return b.outs
}
