package core

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"
)

// lpskGoldenSHA256 is the SHA-256 of the LPSK snapshot goldenProtocol
// produces. Any byte-level change to the LPSK encoder (or to the LDSK/LHSK
// blobs it embeds) breaks it and must ship with a version bump and a
// migration story.
const lpskGoldenSHA256 = "0a2c9d11c0ccb692f507373e19a850aea15e9a9be8056fab9dd73251096c54dc"

// lpskV1Fixture is goldenProtocol's snapshot as the dense LDSK/LHSK
// version 1 encoders wrote it (SHA-256 88f3e8d8…96f2, 4,254,298 bytes),
// gzipped. It must keep restoring.
const lpskV1Fixture = "testdata/lpsk_v1_golden.bin.gz"

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

// TestProtocolSnapshotGoldenBytes pins the LPSK bytes (with v2 oracle
// blobs) through a digest of a whole small-config snapshot, proves the v1
// fixture of the same state restores, re-encodes to those bytes and
// identifies identically, and bounds the encoder's allocations.
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

	f, err := os.Open(lpskV1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(denseV1(t, pr, snap), v1) {
		t.Fatal("the v1 fixture is not the dense re-encoding of the golden state")
	}
	restored, err := New(snapTestParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(v1); err != nil {
		t.Fatalf("v1 fixture rejected: %v", err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Fatalf("v1 fixture re-encodes to %d bytes that differ from the %d-byte golden", len(again), len(snap))
	}

	// The encoder appends into one growing buffer sized by the previous
	// snapshot's length, so re-snapshotting unchanged state allocates once.
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := pr.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("repeat Protocol.Snapshot made %v allocations, want exactly 1", allocs)
	}

	want, err := pr.Identify()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("v1-restored protocol identified %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Item, want[i].Item) || got[i].Count != want[i].Count {
			t.Fatalf("rank %d: %x/%v, want %x/%v", i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
}
