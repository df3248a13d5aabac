package freqoracle

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzRestoreSnapshot: arbitrary bytes must never panic either oracle's
// Restore — truncated, oversize, NaN/Inf-payload, non-canonical-stream and
// shape-mismatched inputs are rejected with errors. An accepted version 2
// snapshot must re-serialize to the identical bytes (the format is
// canonical: the shape pins every header field and the cell stream has one
// encoding per state). An accepted version 1 snapshot re-serializes as
// version 2, which must restore into a second oracle with field-for-field
// identical state and re-serialize identically. Restore is atomic, which is
// what makes reusing the oracles across fuzz iterations sound: an accepted
// input replaces the whole state, a rejected one touches nothing.
func FuzzRestoreSnapshot(f *testing.F) {
	params := HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1}
	newH := func() *Hashtogram {
		h, err := NewHashtogram(params)
		if err != nil {
			f.Fatal(err)
		}
		return h
	}
	newD := func() *DirectHistogram {
		d, err := NewDirectHistogram(1, 3)
		if err != nil {
			f.Fatal(err)
		}
		return d
	}
	h, h2, d, d2 := newH(), newH(), newD(), newD()
	// Live seeds on top of the checked-in corpus: real snapshots of both
	// oracles, plus bit-flip sweeps over valid ones of both versions so the
	// fuzzer starts at every header and stream boundary.
	hsnap, err := newH().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	dsnap, err := newD().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hsnap)
	f.Add(dsnap)
	f.Add(hsnap[:len(hsnap)-1])
	f.Add(append(append([]byte(nil), dsnap...), 0))
	for _, golden := range []string{lhskV1Golden, lhskV2Golden, ldskV2Golden} {
		snap := mustHex(f, golden)
		step := 7
		if snap[4] == snapshotV2 {
			step = 1
		}
		for i := 0; i < len(snap); i += step {
			mut := append([]byte(nil), snap...)
			mut[i] ^= 0x80
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := h.Restore(data); err == nil {
			out := resnapshot(t, h, h2, data)
			if !slices.Equal(h2.acc, h.acc) || !slices.Equal(h2.rowCounts, h.rowCounts) || h2.total != h.total {
				t.Fatalf("hashtogram v2 re-encoding %x restores to different state", out)
			}
		}
		if err := d.Restore(data); err == nil {
			out := resnapshot(t, d, d2, data)
			if !slices.Equal(d2.acc, d.acc) || d2.n != d.n {
				t.Fatalf("direct v2 re-encoding %x restores to different state", out)
			}
		}
	})
}

// resnapshot checks the round trip of data, already accepted by o: o's
// re-serialization must equal data if data is version 2, must be accepted
// by the fresh oracle o2, and must re-serialize from o2 identically. The
// caller compares o and o2 field for field.
func resnapshot(t *testing.T, o, o2 snapshotter, data []byte) []byte {
	t.Helper()
	out, err := o.Snapshot()
	if err != nil {
		t.Fatalf("accepted snapshot failed to re-serialize: %v", err)
	}
	if data[4] == snapshotV2 && !bytes.Equal(out, data) {
		t.Fatalf("v2 snapshot not canonical: %x -> %x", data, out)
	}
	if err := o2.Restore(out); err != nil {
		t.Fatalf("re-serialized snapshot %x rejected: %v", out, err)
	}
	again, err := o2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, out) {
		t.Fatalf("re-serialization not stable: %x -> %x", out, again)
	}
	return out
}
