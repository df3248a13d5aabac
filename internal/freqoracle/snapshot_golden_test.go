package freqoracle

import (
	"encoding/hex"
	"testing"
)

// The golden-bytes tests pin the exact serialized layouts so the formats
// cannot drift silently (the way BytesPerReport once did): any byte-level
// change to the encoders breaks these constants and must ship with a
// version bump and a migration story, not slide through. The version 1
// constants are what the dense encoder wrote for the same states; they stay
// as restore fixtures, because v1 snapshots on disk must still load.

const (
	// lhskV2Golden is Hashtogram "LHSK" version 2:
	//
	//	magic | version | rows u32 | t u32 | rowCounts []u64 | cell stream
	lhskV2Golden = "4c48534b02" + // "LHSK" v2
		"00000002" + "00000004" + // rows=2, t=4
		"0000000000000002" + "0000000000000001" + // rowCounts
		"0104" + // skip 1 zero, cell 1 = +2 (zigzag 4)
		"0501" + // skip 5 zeros, cell 7 = -1 (zigzag 1)
		"00" // no trailing zeros: the stream has covered all 8 cells

	// lhskV1Golden is the same state as Hashtogram "LHSK" version 1:
	//
	//	magic | version | rows u32 | t u32 | rowCounts []u64 | acc []f64 (row-major)
	lhskV1Golden = "4c48534b01" + // "LHSK" v1
		"00000002" + "00000004" + // rows=2, t=4
		"0000000000000002" + "0000000000000001" + // rowCounts
		"0000000000000000" + "4000000000000000" + "0000000000000000" + "0000000000000000" + // acc row 0: [0, 2, 0, 0]
		"0000000000000000" + "0000000000000000" + "0000000000000000" + "bff0000000000000" // acc row 1: [0, 0, 0, -1]

	// ldskV2Golden is DirectHistogram "LDSK" version 2:
	//
	//	magic | version | domain u32 | t u32 | epsBits u64 | n u64 | cell stream
	ldskV2Golden = "4c44534b02" + // "LDSK" v2
		"00000003" + "00000004" + // domain=3, padded t=4
		"3ff0000000000000" + // epsBits: Float64bits(1.0)
		"0000000000000002" + // n=2
		"0002" + // skip 0 zeros, cell 0 = +1 (zigzag 2)
		"0101" + // skip 1 zero, cell 2 = -1 (zigzag 1)
		"01" // one trailing zero

	// ldskV1Golden is the same state as DirectHistogram "LDSK" version 1:
	//
	//	magic | version | domain u32 | t u32 | epsBits u64 | n u64 | acc []f64
	ldskV1Golden = "4c44534b01" + // "LDSK" v1
		"00000003" + "00000004" + // domain=3, padded t=4
		"3ff0000000000000" + // epsBits: Float64bits(1.0)
		"0000000000000002" + // n=2
		"3ff0000000000000" + "0000000000000000" + "bff0000000000000" + "0000000000000000" // acc: [1, 0, -1, 0]
)

func goldenHashtogram(t *testing.T) *Hashtogram {
	t.Helper()
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func goldenDirect(t *testing.T) *DirectHistogram {
	t.Helper()
	d, err := NewDirectHistogram(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	raw, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// snapshotter is the snapshot surface both oracles share.
type snapshotter interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
	TotalReports() int
}

// checkGolden asserts that s snapshots to the version 2 golden and that
// both the v2 golden and the v1 fixture of the same state restore into a
// fresh oracle that re-snapshots to the v2 golden.
func checkGolden(t *testing.T, s snapshotter, fresh func() snapshotter, v2, v1 string, reports int) {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(snap); got != v2 {
		t.Fatalf("layout drifted:\n got %s\nwant %s", got, v2)
	}
	for name, in := range map[string]string{"v2": v2, "v1": v1} {
		g := fresh()
		if err := g.Restore(mustHex(t, in)); err != nil {
			t.Fatalf("restoring the %s golden: %v", name, err)
		}
		if g.TotalReports() != reports {
			t.Fatalf("restored %s golden holds %d reports, want %d", name, g.TotalReports(), reports)
		}
		out, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(out); got != v2 {
			t.Fatalf("restored %s golden re-snapshots to\n %s\nwant %s", name, got, v2)
		}
	}
}

// TestSnapshotGoldenBytes pins Hashtogram "LHSK" version 2 and the v1 → v2
// migration of the same state.
func TestSnapshotGoldenBytes(t *testing.T) {
	h := goldenHashtogram(t)
	// Hand-picked reports with fully predictable counters: two +1 hits on
	// (row 0, col 1) and one -1 hit on (row 1, col 3).
	for _, rep := range []HashtogramReport{
		{Row: 0, Col: 1, Bit: 1},
		{Row: 0, Col: 1, Bit: 1},
		{Row: 1, Col: 3, Bit: -1},
	} {
		if err := h.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, h, func() snapshotter { return goldenHashtogram(t) }, lhskV2Golden, lhskV1Golden, 3)
}

// TestDirectSnapshotGoldenBytes pins DirectHistogram "LDSK" version 2 and
// the v1 → v2 migration of the same state.
func TestDirectSnapshotGoldenBytes(t *testing.T) {
	d := goldenDirect(t)
	for _, rep := range []DirectReport{
		{Col: 0, Bit: 1},
		{Col: 2, Bit: -1},
	} {
		if err := d.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, d, func() snapshotter { return goldenDirect(t) }, ldskV2Golden, ldskV1Golden, 2)
}
