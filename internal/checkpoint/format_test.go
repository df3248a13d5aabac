package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// testdata/v1.lckf holds seq 1 with this fingerprint, timestamp and
// payload, written by the version-1 (FNV-1a-64 trailer) Save.
const (
	v1FixturePayload = "LCKF v1 fixture payload: written by the version-1 Save"
	v1FixtureFP      = 0x0123456789abcdef
	v1FixtureNanos   = 0x18df3e7cd7a1fd09
)

// installV1Fixture copies the committed version-1 file into dir as the
// live checkpoint with sequence number 1.
func installV1Fixture(t testing.TB, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v1.lckf"))
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != versionFNV {
		t.Fatalf("fixture has version %d, want 1", raw[4])
	}
	if err := os.WriteFile(filepath.Join(dir, filePrefix+"0000000000000001"+fileSuffix), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadVersion1Fixture is the upgrade story: a server restarted on the
// version-2 code still recovers the checkpoints its version-1 predecessor
// wrote, and still rejects a corrupted one.
func TestLoadVersion1Fixture(t *testing.T) {
	dir := t.TempDir()
	installV1Fixture(t, dir)
	m, err := Open(dir, WithFingerprint(v1FixtureFP))
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := m.LoadNewest()
	if err != nil {
		t.Fatalf("LoadNewest over a version-1 file: %v", err)
	}
	if string(got) != v1FixturePayload {
		t.Fatalf("payload %q, want %q", got, v1FixturePayload)
	}
	if info.Seq != 1 || info.Fingerprint != v1FixtureFP || info.Bytes != len(v1FixturePayload) ||
		info.Time.UnixNano() != v1FixtureNanos {
		t.Fatalf("info = %+v", info)
	}
	// The next Save continues the numbering in the new format.
	info2, err := m.Save([]byte("after upgrade"))
	if err != nil {
		t.Fatal(err)
	}
	if info2.Seq != 2 {
		t.Fatalf("post-upgrade seq = %d, want 2", info2.Seq)
	}

	// A bit flip in a version-1 payload still fails its FNV-1a-64 trailer.
	raw, err := os.ReadFile(filepath.Join("testdata", "v1.lckf"))
	if err != nil {
		t.Fatal(err)
	}
	raw[headerBytes] ^= 0x01
	path := filepath.Join(t.TempDir(), "flipped.lckf")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFile(path); err == nil {
		t.Fatal("readFile accepted a version-1 file with a flipped payload bit")
	}
}

// TestTornVersion2FallsBackToVersion1 covers a crash during the first
// checkpoint after an upgrade: the torn version-2 file is skipped and the
// version-1 file before it recovers.
func TestTornVersion2FallsBackToVersion1(t *testing.T) {
	dir := t.TempDir()
	installV1Fixture(t, dir)
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Save([]byte("torn new state"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(info.Path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	got, gi, err := m.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if gi.Seq != 1 || string(got) != v1FixturePayload {
		t.Fatalf("recovered seq %d payload %q, want the version-1 fixture", gi.Seq, got)
	}
}

// TestVersion2Layout pins the file Save writes byte for byte: the header
// fields in order, the payload exactly as given (not copied out of order
// or altered), and the CRC-32C of everything before it, zero-extended into
// the 8-byte trailer.
func TestVersion2Layout(t *testing.T) {
	m, err := Open(t.TempDir(), WithFingerprint(0xfeedface))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4099)
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}
	info, err := m.Save(payload)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("LCKF\x02")
	want = binary.BigEndian.AppendUint64(want, info.Seq)
	want = binary.BigEndian.AppendUint64(want, uint64(info.Time.UnixNano()))
	want = binary.BigEndian.AppendUint64(want, 0xfeedface)
	want = binary.BigEndian.AppendUint64(want, uint64(len(payload)))
	want = append(want, payload...)
	want = binary.BigEndian.AppendUint64(want, uint64(crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli))))
	if !bytes.Equal(raw, want) {
		t.Fatalf("version-2 file is %d bytes and differs from the pinned layout (%d bytes)", len(raw), len(want))
	}
	if !bytes.Equal(raw[len(raw)-trailerBytes:len(raw)-4], []byte{0, 0, 0, 0}) {
		t.Fatalf("trailer high half %x, want zero", raw[len(raw)-trailerBytes:len(raw)-4])
	}
	got, _, err := m.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload did not round-trip")
	}
}

// FuzzReadFile feeds arbitrary bytes to readFile: it must never panic, and
// any file it accepts must carry a payload that round-trips through Save
// and LoadNewest unchanged.
func FuzzReadFile(f *testing.F) {
	if raw, err := os.ReadFile(filepath.Join("testdata", "v1.lckf")); err == nil {
		f.Add(raw)
	}
	m, err := Open(f.TempDir(), WithFingerprint(7))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"", "x", "accumulated sketch state"} {
		info, err := m.Save([]byte(p))
		if err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(info.Path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("LCKF"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.lckf")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, info, err := readFile(path)
		if err != nil {
			return
		}
		if info.Bytes != len(payload) {
			t.Fatalf("info.Bytes %d, payload %d bytes", info.Bytes, len(payload))
		}
		m, err := Open(filepath.Join(dir, "ckpt"), WithFingerprint(info.Fingerprint))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Save(payload); err != nil {
			t.Fatal(err)
		}
		got, gi, err := m.LoadNewest()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) || gi.Fingerprint != info.Fingerprint {
			t.Fatalf("accepted payload did not round-trip: %d bytes back, fingerprint %x want %x",
				len(got), gi.Fingerprint, info.Fingerprint)
		}
	})
}
