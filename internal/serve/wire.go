package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/insertion"
	"repro/internal/shard"
	"repro/internal/shard/wire"
	"repro/internal/yield"
)

// This file is the binary wire codec for the /v1/shard/* pass payloads,
// the only framing those endpoints speak: a request whose Content-Type is
// not wire.ContentType gets 415, and error responses are JSON like every
// other endpoint's.
//
// Frame grammar (all little-endian, see internal/shard/wire):
//
//	request  := version:u8 header:bytes lo:int hi:int
//	response := version:u8 batch elapsedMS:int
//
// The request header is the JSON encoding of the full pass request with
// its Range zeroed: the slow-moving part (circuit spec, options, query
// batch, pass spec) is marshaled once per pass and shared by every
// range and wave, while the per-range part travels as two native ints.
// Reusing the JSON form for the header keeps every field — including
// nil-vs-empty — exactly as the request types define it. The response is
// the bulky direction (per-sample outcomes, per-sweep tallies) and is
// fully binary via the flat batch codecs in internal/insertion and
// internal/yield.

// CodecBinary names the binary shard frame.
//
// Deprecated: the shard plane speaks only the binary frame; the name
// survives for callers that still set Config.Codec, which is ignored.
const CodecBinary = "binary"

// appendPassRequest frames one pass request: the shared JSON header plus
// the native per-range window.
func appendPassRequest(buf []byte, header []byte, r shard.Range) []byte {
	buf = wire.AppendU8(buf, wire.Version)
	buf = wire.AppendBytes(buf, header)
	buf = wire.AppendInt(buf, r.Lo)
	buf = wire.AppendInt(buf, r.Hi)
	return buf
}

// decodePassRequest unframes a binary pass request: the JSON header
// unmarshals into req, and the range window comes back for the caller
// to restore.
func decodePassRequest(data []byte, req any) (shard.Range, error) {
	r := wire.NewReader(data)
	r.Version(wire.Version)
	header := r.Bytes()
	rng := shard.Range{Lo: r.Int(), Hi: r.Int()}
	if err := r.Done(); err != nil {
		return shard.Range{}, err
	}
	return rng, json.Unmarshal(header, req)
}

func decodeInsertPassRequest(data []byte) (req InsertPassRequest, err error) {
	req.Range, err = decodePassRequest(data, &req)
	return req, err
}

func decodeYieldPassRequest(data []byte) (req YieldPassRequest, err error) {
	req.Range, err = decodePassRequest(data, &req)
	return req, err
}

// appendFrame frames one insert-pass response binary.
func (resp *InsertPassResponse) appendFrame(buf []byte) []byte {
	buf = wire.AppendU8(buf, wire.Version)
	buf = insertion.AppendOutcomes(buf, resp.Outcomes)
	buf = wire.AppendInt(buf, int(resp.ElapsedMS))
	return buf
}

// decodeInsertPassResponse unframes a binary insert-pass response.
func decodeInsertPassResponse(data []byte) (*InsertPassResponse, error) {
	var ob insertion.OutcomeBuf
	r := wire.NewReader(data)
	r.Version(wire.Version)
	outs := ob.Decode(&r)
	elapsed := r.Int()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &InsertPassResponse{Outcomes: outs, ElapsedMS: int64(elapsed)}, nil
}

// appendFrame frames one yield-pass response binary.
func (resp *YieldPassResponse) appendFrame(buf []byte) []byte {
	buf = wire.AppendU8(buf, wire.Version)
	buf = yield.AppendTallies(buf, resp.Tallies)
	buf = wire.AppendInt(buf, int(resp.ElapsedMS))
	return buf
}

// decodeYieldPassResponse unframes a binary yield-pass response.
func decodeYieldPassResponse(data []byte) (*YieldPassResponse, error) {
	var tb yield.TallyBuf
	r := wire.NewReader(data)
	r.Version(wire.Version)
	tallies := tb.Decode(&r)
	elapsed := r.Int()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &YieldPassResponse{Tallies: tallies, ElapsedMS: int64(elapsed)}, nil
}

// frame is a 200 response written as a binary shard frame instead of
// JSON: the pass responses.
type frame interface {
	appendFrame(buf []byte) []byte
}

// encBufPool recycles response encode buffers across shard-pass
// requests so the warm worker encode path reuses storage instead of
// allocating a fresh frame per range.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// writeFrame writes resp's frame as the 200 body.
func writeFrame(w http.ResponseWriter, resp frame) {
	bp := encBufPool.Get().(*[]byte)
	buf := resp.appendFrame((*bp)[:0])
	w.Header().Set("Content-Type", wire.ContentType)
	w.Write(buf)
	*bp = buf[:0]
	encBufPool.Put(bp)
}

// decodeFrame reads a binary pass request and unframes it: 415 unless the
// body is declared a shard frame, 400 if it does not unframe.
func decodeFrame[T any](r *http.Request, unframe func([]byte) (T, error)) (T, error) {
	var req T
	if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
		return req, &httpError{status: http.StatusUnsupportedMediaType, err: fmt.Errorf("shard passes take Content-Type %s, not %q", wire.ContentType, ct)}
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return req, badRequest("reading request: %v", err)
	}
	if req, err = unframe(body); err != nil {
		return req, badRequest("decoding request: %v", err)
	}
	return req, nil
}

// postPass sends one pass range to w as a binary frame and unframes the
// 200 body with unframe. header is the pass request's JSON form with a
// zero Range, marshaled once per pass and shared by every range. A body
// that does not unframe — truncated mid-frame, version-skewed, mangled,
// or not a frame at all — classifies corrupt: the partial is discarded
// and the range retries elsewhere, never merging.
func postPass[T any](ctx context.Context, w *shard.Worker, path string, header []byte, r shard.Range, unframe func([]byte) (T, error)) (T, error) {
	data, err := w.PostBody(ctx, path, wire.ContentType, appendPassRequest(nil, header, r))
	if err != nil {
		var zero T
		return zero, err
	}
	resp, err := unframe(data)
	if err != nil {
		return resp, shard.Errf(shard.ClassCorrupt, "serve: decoding %s frame from %s: %w", path, w.Base, err)
	}
	return resp, nil
}
