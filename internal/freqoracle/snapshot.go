package freqoracle

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// The oracles serialize their accumulated (non-finalized) state into small
// versioned binary snapshots so an aggregation server can checkpoint
// mid-collection, resume after a restart, or ship its state to a parent
// aggregator that folds it in with Merge. The public randomness is NOT
// serialized — it is reproducible from the construction parameters — so a
// snapshot is only loadable into an oracle built from identical parameters;
// Restore validates the embedded shape against the receiver and rejects
// mismatches.
//
// Restore is atomic: it fully validates the snapshot (magic, version,
// shape, counter ranges, float finiteness) before touching any state, so a
// failed Restore leaves the oracle exactly as it was.
//
// Hashtogram format "LHSK" (big endian), pinned by TestSnapshotGoldenBytes:
//
//	magic "LHSK" | version u8 | rows u32 | t u32 | rowCounts []u64 | cells
//
// DirectHistogram format "LDSK" (big endian), pinned by
// TestDirectSnapshotGoldenBytes:
//
//	magic "LDSK" | version u8 | domain u32 | t u32 | epsBits u64 | n u64 | cells
//
// The cells are the accumulator, row-major for the Hashtogram. Version 2,
// the only version written, stores them sparsely: every report adds one ±1
// bit to one cell, so after k reports at most k cells are non-zero. For
// each non-zero cell the stream holds a uvarint of the zero cells skipped
// since the previous one, then the value as a zigzag varint; a skip that
// reaches the end of the cells closes the stream. Restore accepts only the
// canonical stream: minimal varints, no run past the last cell, no zero
// value, no |value| above maxSnapshotTally, no trailing bytes. Version 1
// stored every cell as float64 bits; it is read-only, kept so checkpoints
// written before version 2 still restore.

// fingerprint digests a labeled word sequence with FNV-1a — the shared
// helper behind the oracle parameter fingerprints, labeled per type so the
// two oracles can never collide with each other (or with core's LPSK
// fingerprint).
func fingerprint(label string, words ...uint64) uint64 {
	f := fnv.New64a()
	f.Write([]byte(label))
	var buf [8]byte
	for _, w := range words {
		binary.BigEndian.PutUint64(buf[:], w)
		f.Write(buf[:])
	}
	return f.Sum64()
}

// Fingerprint returns a 64-bit digest of every parameter that determines
// the Hashtogram's accumulated-state shape and public randomness: ε, the
// sketch geometry and the seed. Two sketches with equal fingerprints absorb
// interchangeable reports and produce mutually loadable snapshots; the
// checkpoint layer stamps it into checkpoint file headers.
func (h *Hashtogram) Fingerprint() uint64 {
	return fingerprint("ldphh/freqoracle.Hashtogram/v1",
		math.Float64bits(h.p.Eps), uint64(h.p.Rows), uint64(h.p.T), h.p.Seed)
}

// Fingerprint returns a 64-bit digest of every parameter that determines
// the DirectHistogram's accumulated-state shape and randomizer: ε, the
// domain and the derived Hadamard width. The histogram draws no seeded
// public randomness, so the parameters alone pin snapshot compatibility.
func (d *DirectHistogram) Fingerprint() uint64 {
	return fingerprint("ldphh/freqoracle.DirectHistogram/v1",
		math.Float64bits(d.eps), uint64(d.domain), uint64(d.t))
}

// Snapshot versions: v1 is read-only, v2 is the only one written.
const (
	snapshotV1 = 1 // dense float64 cells
	snapshotV2 = 2 // sparse cell stream
)

// maxSnapshotTally bounds every deserialized counter: report tallies and
// accumulator cells are integer-valued with magnitude at most the absorbed
// report count, and anything beyond 2^53 could not even have been
// accumulated exactly — so larger (or non-integral) values can only come
// from corruption and are rejected before conversion, with no reliance on
// signed wraparound.
const maxSnapshotTally = uint64(1) << 53

// appendCells appends the version 2 cell stream of acc (format above).
func appendCells(buf []byte, acc []int64) []byte {
	run := uint64(0)
	for _, v := range acc {
		if v == 0 {
			run++
			continue
		}
		buf = binary.AppendUvarint(buf, run)
		buf = binary.AppendVarint(buf, v)
		run = 0
	}
	return binary.AppendUvarint(buf, run)
}

// readCells validates a cell section of the given version holding exactly
// len(acc) cells and, when commit is set, overwrites acc with it. Restore
// runs it once without commit before touching any state.
func readCells(version byte, src []byte, acc []int64, commit bool) error {
	if version == snapshotV1 {
		return readDenseCells(src, acc, commit)
	}
	return readSparseCells(src, acc, commit)
}

// readDenseCells reads version 1 cells: one float64 per cell.
func readDenseCells(src []byte, acc []int64, commit bool) error {
	if len(src) != 8*len(acc) {
		return fmt.Errorf("freqoracle: snapshot cell section is %d bytes, want %d", len(src), 8*len(acc))
	}
	for j := range acc {
		v := math.Float64frombits(binary.BigEndian.Uint64(src[8*j:]))
		if commit {
			acc[j] = int64(v)
		} else if err := validTally(v); err != nil {
			return err
		}
	}
	return nil
}

// readSparseCells reads a version 2 cell stream. A one-byte varint, which
// most skips and values are, is decoded in line at both read sites; a call
// per varint would double the cost of a restore.
func readSparseCells(src []byte, acc []int64, commit bool) error {
	if commit {
		clear(acc)
	}
	i, pos := 0, 0
	for {
		var skip uint64
		if i < len(src) && src[i] < 0x80 {
			skip = uint64(src[i])
			i++
		} else {
			v, n, err := longUvarint(src[i:])
			if err != nil {
				return err
			}
			skip, i = v, i+n
		}
		if left := uint64(len(acc) - pos); skip >= left {
			if skip > left {
				return fmt.Errorf("freqoracle: snapshot cell run of %d zeros passes the last cell (%d left)", skip, left)
			}
			if i != len(src) {
				return fmt.Errorf("freqoracle: snapshot has %d trailing bytes", len(src)-i)
			}
			return nil
		}
		pos += int(skip)
		var u uint64
		if i < len(src) && src[i] < 0x80 {
			u = uint64(src[i])
			i++
		} else {
			v, n, err := longUvarint(src[i:])
			if err != nil {
				return err
			}
			u, i = v, i+n
		}
		// Zigzag: u = 2v for v >= 0 and -2v-1 for v < 0, so |v| <= 2^53
		// exactly when u <= 2^54.
		if u == 0 {
			return fmt.Errorf("freqoracle: snapshot cell %d is an explicit zero", pos)
		}
		if u > 2*maxSnapshotTally {
			return fmt.Errorf("freqoracle: snapshot cell %d exceeds report-tally bound %d", pos, maxSnapshotTally)
		}
		if commit {
			acc[pos] = int64(u>>1) ^ -int64(u&1)
		}
		pos++
	}
}

// longUvarint decodes the uvarint at the front of src, which is empty or
// starts with a continuation byte, and returns it with its length. The
// varint must be complete, fit 64 bits and be minimally encoded: a
// multi-byte varint whose last byte is zero has a shorter form.
func longUvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("freqoracle: snapshot cell stream is truncated or has an overlong varint")
	}
	if src[n-1] == 0 {
		return 0, 0, fmt.Errorf("freqoracle: snapshot cell stream has a non-minimal varint")
	}
	return v, n, nil
}

// validTally accepts exactly the float64 values a version 1 cell can hold:
// finite, integral, magnitude at most maxSnapshotTally. Every accepted
// value converts to int64 exactly.
func validTally(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("freqoracle: snapshot accumulator value %v is not finite", v)
	}
	if v != math.Trunc(v) || v > float64(maxSnapshotTally) || v < -float64(maxSnapshotTally) {
		return fmt.Errorf("freqoracle: snapshot accumulator value %v is not an integral report tally", v)
	}
	if v == 0 && math.Signbit(v) {
		// ±1 sums can never produce -0.0.
		return fmt.Errorf("freqoracle: snapshot accumulator value -0 is not canonical")
	}
	return nil
}

// Snapshot serializes the Hashtogram's accumulated state (format above).
func (h *Hashtogram) Snapshot() ([]byte, error) { return h.AppendSnapshot(nil) }

// AppendSnapshot appends the Hashtogram's snapshot to buf and returns the
// extended slice.
func (h *Hashtogram) AppendSnapshot(buf []byte) ([]byte, error) {
	if h.finalized {
		return nil, fmt.Errorf("freqoracle: Snapshot after Finalize")
	}
	buf = append(buf, 'L', 'H', 'S', 'K', snapshotV2)
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.p.Rows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.p.T))
	for _, c := range h.rowCounts {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
	}
	return appendCells(buf, h.acc), nil
}

// Restore loads a snapshot of either version produced by a sketch with
// identical parameters, replacing this sketch's accumulated state. On
// error the state is unchanged.
func (h *Hashtogram) Restore(buf []byte) error {
	if h.finalized {
		return fmt.Errorf("freqoracle: Restore after Finalize")
	}
	const head = 4 + 1 + 4 + 4
	if len(buf) < head+8*h.p.Rows {
		return fmt.Errorf("freqoracle: snapshot truncated at %d bytes", len(buf))
	}
	if string(buf[:4]) != "LHSK" {
		return fmt.Errorf("freqoracle: bad snapshot magic")
	}
	version := buf[4]
	if version != snapshotV1 && version != snapshotV2 {
		return fmt.Errorf("freqoracle: unsupported snapshot version %d", version)
	}
	rows := int(binary.BigEndian.Uint32(buf[5:]))
	t := int(binary.BigEndian.Uint32(buf[9:]))
	if rows != h.p.Rows || t != h.p.T {
		return fmt.Errorf("freqoracle: snapshot shape (%d,%d) does not match sketch (%d,%d)",
			rows, t, h.p.Rows, h.p.T)
	}
	// Validation pass. Row counts are report tallies, so each — and their
	// sum, which becomes the total — is checked against maxSnapshotTally on
	// the raw uint64 before any int conversion.
	counts := buf[head : head+8*rows]
	cells := buf[head+8*rows:]
	var sum uint64
	for r := 0; r < rows; r++ {
		c := binary.BigEndian.Uint64(counts[8*r:])
		if c > maxSnapshotTally {
			return fmt.Errorf("freqoracle: snapshot row %d count %d exceeds report-tally bound %d", r, c, maxSnapshotTally)
		}
		sum += c
		if sum > maxSnapshotTally {
			return fmt.Errorf("freqoracle: snapshot total report count exceeds bound %d", maxSnapshotTally)
		}
	}
	if err := readCells(version, cells, h.acc, false); err != nil {
		return err
	}
	// Commit pass.
	h.total = int(sum)
	for r := range h.rowCounts {
		h.rowCounts[r] = int(binary.BigEndian.Uint64(counts[8*r:]))
	}
	return readCells(version, cells, h.acc, true)
}

// Snapshot serializes the DirectHistogram's accumulated state (format
// above). The privacy parameter is embedded as raw float64 bits so a
// snapshot cannot be restored into an oracle with a different ε — the
// accumulated counters are only meaningful under the randomizer that
// produced them.
func (d *DirectHistogram) Snapshot() ([]byte, error) { return d.AppendSnapshot(nil) }

// AppendSnapshot appends the DirectHistogram's snapshot to buf and returns
// the extended slice.
func (d *DirectHistogram) AppendSnapshot(buf []byte) ([]byte, error) {
	if d.finalized {
		return nil, fmt.Errorf("freqoracle: Snapshot after Finalize")
	}
	buf = append(buf, 'L', 'D', 'S', 'K', snapshotV2)
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.domain))
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.t))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.eps))
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.n))
	return appendCells(buf, d.acc), nil
}

// Restore loads a snapshot of either version produced by an oracle with
// identical parameters, replacing this oracle's accumulated state. On
// error the state is unchanged.
func (d *DirectHistogram) Restore(buf []byte) error {
	if d.finalized {
		return fmt.Errorf("freqoracle: Restore after Finalize")
	}
	const head = 4 + 1 + 4 + 4 + 8 + 8
	if len(buf) < head {
		return fmt.Errorf("freqoracle: snapshot truncated at %d bytes", len(buf))
	}
	if string(buf[:4]) != "LDSK" {
		return fmt.Errorf("freqoracle: bad snapshot magic")
	}
	version := buf[4]
	if version != snapshotV1 && version != snapshotV2 {
		return fmt.Errorf("freqoracle: unsupported snapshot version %d", version)
	}
	domain := int(binary.BigEndian.Uint32(buf[5:]))
	t := int(binary.BigEndian.Uint32(buf[9:]))
	if domain != d.domain || t != d.t {
		return fmt.Errorf("freqoracle: snapshot shape (%d,%d) does not match histogram (%d,%d)",
			domain, t, d.domain, d.t)
	}
	if epsBits := binary.BigEndian.Uint64(buf[13:]); epsBits != math.Float64bits(d.eps) {
		return fmt.Errorf("freqoracle: snapshot eps %v does not match histogram eps %v",
			math.Float64frombits(epsBits), d.eps)
	}
	n := binary.BigEndian.Uint64(buf[21:])
	if n > maxSnapshotTally {
		return fmt.Errorf("freqoracle: snapshot report count %d exceeds report-tally bound %d", n, maxSnapshotTally)
	}
	if err := readCells(version, buf[head:], d.acc, false); err != nil {
		return err
	}
	// Commit pass.
	d.n = int(n)
	return readCells(version, buf[head:], d.acc, true)
}
