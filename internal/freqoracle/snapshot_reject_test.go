package freqoracle

// Reject-path pins for both snapshot versions. Version 1 cells are float64
// bits and version 2 cells are a sparse varint stream, but both face the
// same explicit maxSnapshotTally bound: every counter is checked against
// 2^53 on its raw wire value before any int conversion, so corrupted
// oversized values can never wrap or lose precision on the way into the
// int64 accumulators. Version 2 adds the canonical-stream rules: minimal
// varints, no run past the last cell, no explicit zero cell, no trailing
// bytes. The same mutations live as named seeds under
// testdata/fuzz/FuzzRestoreSnapshot/.

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// restoreRejects asserts that restoring snap into a fresh oracle fails with
// an error containing want.
func restoreRejects(t *testing.T, o snapshotter, snap []byte, want string) {
	t.Helper()
	err := o.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Restore = %v, want error containing %q", err, want)
	}
}

// v2Stream replaces the cell stream of a version 2 golden (whose header is
// head bytes long) with the given stream.
func v2Stream(t *testing.T, golden string, head int, stream []byte) []byte {
	t.Helper()
	return append(mustHex(t, golden)[:head:head], stream...)
}

// v2Cases are the version 2 cell-stream rejections, as streams over a
// sketch of 4 cells (the histogram) or 8 cells (the sketch); cells says
// which.
func v2Cases(cells int) []struct{ name, stream, want string } {
	over := binary.AppendUvarint(nil, 0)
	over = binary.AppendVarint(over, int64(maxSnapshotTally)+1)
	over = binary.AppendUvarint(over, uint64(cells-1))
	past := hex.EncodeToString(binary.AppendUvarint(nil, uint64(cells+1)))
	return []struct{ name, stream, want string }{
		{"v2 cell beyond 2^53", hex.EncodeToString(over), "exceeds report-tally bound"},
		{"v2 explicit zero cell", "0000" + hex.EncodeToString(binary.AppendUvarint(nil, uint64(cells-1))), "explicit zero"},
		{"v2 non-minimal skip", "8000" + "02" + hex.EncodeToString(binary.AppendUvarint(nil, uint64(cells-1))), "non-minimal varint"},
		{"v2 non-minimal value", "00" + "8200" + hex.EncodeToString(binary.AppendUvarint(nil, uint64(cells-1))), "non-minimal varint"},
		{"v2 run past the last cell", past, "passes the last cell"},
		{"v2 stream ends early", "0002", "truncated"},
		{"v2 overlong varint", "ffffffffffffffffffff01", "overlong varint"},
		{"v2 trailing bytes", "0002" + hex.EncodeToString(binary.AppendUvarint(nil, uint64(cells-1))) + "00", "trailing bytes"},
	}
}

func TestHashtogramRestoreRejectsOversizedCounters(t *testing.T) {
	base := mustHex(t, lhskV1Golden)
	cases := []struct {
		name string
		off  int
		bits uint64
		want string
	}{
		{"rowcount beyond 2^53", 13, uint64(1)<<53 + 1, "exceeds report-tally bound"},
		{"cell beyond 2^53", 29, math.Float64bits(float64(uint64(1) << 54)), "not an integral report tally"},
		{"non-integral cell", 29, math.Float64bits(2.5), "not an integral report tally"},
		{"negative-zero cell", 29, math.Float64bits(math.Copysign(0, -1)), "not canonical"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := append([]byte(nil), base...)
			binary.BigEndian.PutUint64(snap[tc.off:], tc.bits)
			restoreRejects(t, goldenHashtogram(t), snap, tc.want)
		})
	}
	t.Run("rowcount sum beyond 2^53", func(t *testing.T) {
		for name, golden := range map[string]string{"v1": lhskV1Golden, "v2": lhskV2Golden} {
			snap := mustHex(t, golden)
			binary.BigEndian.PutUint64(snap[13:], uint64(1)<<53) // each row in bound,
			binary.BigEndian.PutUint64(snap[21:], uint64(1)<<53) // their sum is not
			if err := goldenHashtogram(t).Restore(snap); err == nil || !strings.Contains(err.Error(), "total report count exceeds bound") {
				t.Fatalf("%s: Restore = %v, want total-report-count error", name, err)
			}
		}
	})
	t.Run("v2 rowcount beyond 2^53", func(t *testing.T) {
		snap := mustHex(t, lhskV2Golden)
		binary.BigEndian.PutUint64(snap[13:], uint64(1)<<53+1)
		restoreRejects(t, goldenHashtogram(t), snap, "exceeds report-tally bound")
	})
	for _, tc := range v2Cases(8) {
		t.Run(tc.name, func(t *testing.T) {
			restoreRejects(t, goldenHashtogram(t), v2Stream(t, lhskV2Golden, 29, mustHex(t, tc.stream)), tc.want)
		})
	}
}

func TestDirectRestoreRejectsOversizedCounters(t *testing.T) {
	base := mustHex(t, ldskV1Golden)
	cases := []struct {
		name string
		off  int
		bits uint64
		want string
	}{
		{"n beyond 2^53", 21, uint64(1)<<53 + 1, "exceeds report-tally bound"},
		{"cell beyond 2^53", 29, math.Float64bits(float64(uint64(1) << 54)), "not an integral report tally"},
		{"non-integral cell", 29, math.Float64bits(1.5), "not an integral report tally"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := append([]byte(nil), base...)
			binary.BigEndian.PutUint64(snap[tc.off:], tc.bits)
			restoreRejects(t, goldenDirect(t), snap, tc.want)
		})
	}
	t.Run("v2 n beyond 2^53", func(t *testing.T) {
		snap := mustHex(t, ldskV2Golden)
		binary.BigEndian.PutUint64(snap[21:], uint64(1)<<53+1)
		restoreRejects(t, goldenDirect(t), snap, "exceeds report-tally bound")
	})
	for _, tc := range v2Cases(4) {
		t.Run(tc.name, func(t *testing.T) {
			restoreRejects(t, goldenDirect(t), v2Stream(t, ldskV2Golden, 29, mustHex(t, tc.stream)), tc.want)
		})
	}
}

// TestSparseCellsAcceptBoundaries: the extreme legal cell values ±2^53 and
// a non-zero last cell round-trip through the version 2 stream.
func TestSparseCellsAcceptBoundaries(t *testing.T) {
	lim := int64(maxSnapshotTally)
	for _, acc := range [][]int64{
		{lim, 0, 0, -lim},
		{0, 0, 0, 1},
		{0, 0, 0, 0},
		{-1, 1, -1, 1},
	} {
		stream := appendCells(nil, acc)
		if err := readCells(snapshotV2, stream, make([]int64, len(acc)), false); err != nil {
			t.Fatalf("%v: stream %x rejected: %v", acc, stream, err)
		}
		got := []int64{7, 7, 7, 7}
		if err := readCells(snapshotV2, stream, got, true); err != nil {
			t.Fatal(err)
		}
		for i := range acc {
			if got[i] != acc[i] {
				t.Fatalf("%v: stream %x decoded to %v", acc, stream, got)
			}
		}
	}
}

// TestV2CorpusSeeds pins what the checked-in version 2 fuzz seeds exercise:
// each v2-* seed is rejected by both oracles with its named error, and each
// valid-*-v2 seed is accepted by its own oracle.
func TestV2CorpusSeeds(t *testing.T) {
	want := map[string]string{
		"nonminimal":    "non-minimal varint",
		"run-past-end":  "passes the last cell",
		"zero-cell":     "explicit zero",
		"oversize-cell": "exceeds report-tally bound",
		"trailing":      "trailing bytes",
	}
	seeds, err := filepath.Glob("testdata/fuzz/FuzzRestoreSnapshot/*v2*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no v2 seeds (err=%v)", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		data, name := []byte(lit), filepath.Base(path)
		h, d := goldenHashtogram(t), goldenDirect(t)
		if strings.HasPrefix(name, "valid-") {
			o := snapshotter(h)
			if strings.Contains(name, "direct") {
				o = d
			}
			if err := o.Restore(data); err != nil {
				t.Errorf("%s rejected: %v", name, err)
			}
			continue
		}
		for kind, msg := range want {
			if !strings.Contains(name, kind) {
				continue
			}
			o := snapshotter(h)
			if strings.HasSuffix(name, "-direct") {
				o = d
			}
			restoreRejects(t, o, data, msg)
		}
	}
}
