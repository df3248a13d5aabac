package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// fuzzParams is a deliberately tiny configuration (4 coordinates of 4096
// cells each) so each fuzz execution's Restore/Snapshot round trip stays
// cheap while still exercising every section of the LPSK format.
func fuzzParams() Params {
	return Params{Eps: 1, N: 50, ItemBytes: 1, Y: 2, Seed: 9}
}

// FuzzRestoreSnapshot: arbitrary bytes must never panic Protocol.Restore.
// Truncated, oversize, NaN/Inf-payload, shape-mismatched and
// fingerprint-mismatched inputs are rejected with errors before any state
// changes. An accepted input whose oracle blobs are all version 2 must
// re-serialize to the identical bytes, because that encoding is canonical
// for a fixed parameter set. Any accepted input (v1 blobs included) must
// re-serialize to bytes that restore into a second protocol with identical
// group counts and total and that re-serialize identically; the v2 oracle
// blobs are canonical, so equal bytes mean equal oracle state.
func FuzzRestoreSnapshot(f *testing.F) {
	pr, err := New(fuzzParams())
	if err != nil {
		f.Fatal(err)
	}
	// Live seeds: a real snapshot with absorbed reports (the only way to get
	// the correct fingerprint into the corpus), plus truncations and
	// bit-flips at header boundaries.
	seed, err := New(fuzzParams())
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 32; i++ {
		rep, err := seed.Report([]byte{byte(i % 5)}, i, rng)
		if err != nil {
			f.Fatal(err)
		}
		if err := seed.Absorb(rep); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := seed.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:25])
	f.Add(snap[:len(snap)-1])
	f.Add(append(append([]byte(nil), snap...), 0))
	for _, i := range []int{0, 4, 5, 13, 17, 25, 57, 61, len(snap) - 8} {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	f.Add(denseV1(f, seed, snap))
	pr2, err := New(fuzzParams())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := pr.Restore(data); err != nil {
			return
		}
		_, blobs, err := pr.decodeSnapshot(data)
		if err != nil {
			t.Fatalf("accepted snapshot fails to decode: %v", err)
		}
		out, err := pr.Snapshot()
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-serialize: %v", err)
		}
		v2 := true
		for _, b := range blobs {
			v2 = v2 && b[4] == 2
		}
		if v2 && !bytes.Equal(out, data) {
			t.Fatalf("protocol snapshot not canonical: %d bytes in, %d bytes out", len(data), len(out))
		}
		if err := pr2.Restore(out); err != nil {
			t.Fatalf("re-serialized snapshot rejected: %v", err)
		}
		if !slices.Equal(pr2.groupN, pr.groupN) || pr2.absorbed != pr.absorbed {
			t.Fatalf("re-serialized snapshot restores groups %v/%d, want %v/%d",
				pr2.groupN, pr2.absorbed, pr.groupN, pr.absorbed)
		}
		again, err := pr2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("re-serialization not stable: %d bytes, then %d", len(out), len(again))
		}
	})
}

// denseV1 rewrites a snapshot taken from pr so that every oracle blob is
// the dense version 1 encoding of the same state, as the encoders before
// the sparse version 2 cell stream wrote it.
func denseV1(t testing.TB, pr *Protocol, snap []byte) []byte {
	t.Helper()
	_, blobs, err := pr.decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), snap[:snapshotHeader+8*pr.p.M]...)
	for _, b := range blobs {
		rows, head := 1, 4+1+4+4+8+8 // LDSK
		if string(b[:4]) == "LHSK" {
			rows = int(binary.BigEndian.Uint32(b[5:]))
			head = 4 + 1 + 4 + 4 + 8*rows
		}
		cells := make([]int64, rows*int(binary.BigEndian.Uint32(b[9:])))
		stream, pos := b[head:], 0
		for {
			skip, n := binary.Uvarint(stream)
			stream, pos = stream[n:], pos+int(skip)
			if pos == len(cells) {
				break
			}
			v, n := binary.Varint(stream)
			stream, cells[pos] = stream[n:], v
			pos++
		}
		blob := append([]byte(nil), b[:head]...)
		blob[4] = 1
		for _, v := range cells {
			blob = binary.BigEndian.AppendUint64(blob, math.Float64bits(float64(v)))
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out
}
