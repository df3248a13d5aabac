package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// lpskGoldenSHA256 is the SHA-256 of the LPSK snapshot goldenProtocol
// produces. Any byte-level change to the LPSK encoder (or to the LDSK/LHSK
// blobs it embeds) breaks it and must ship with a version bump and a
// migration story.
const lpskGoldenSHA256 = "88f3e8d89796e46c07db2f88243a717eb263427a06f45e34cef3fe3dbace96f2"

// goldenProtocol builds a small fixed-seed protocol and absorbs a few
// hundred fixed reports into it.
func goldenProtocol(t testing.TB) *Protocol {
	t.Helper()
	params := snapTestParams(7)
	pr, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range snapTestReports(t, params, 300) {
		if err := pr.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	return pr
}

// TestProtocolSnapshotGoldenBytes pins LPSK version 1 byte for byte through
// a digest of a whole small-config snapshot, and pins the encoder to one
// exact-size allocation.
func TestProtocolSnapshotGoldenBytes(t *testing.T) {
	pr := goldenProtocol(t)
	snap, err := pr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != lpskGoldenSHA256 {
		t.Fatalf("LPSK layout drifted: sha256 %s (%d bytes), want %s", got, len(snap), lpskGoldenSHA256)
	}
	if cap(snap) != len(snap) {
		t.Fatalf("snapshot cap %d, len %d: the buffer is not exact-size", cap(snap), len(snap))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := pr.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Protocol.Snapshot made %v allocations, want exactly 1", allocs)
	}
}
