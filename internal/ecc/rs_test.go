package ecc

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

func mustCode(t *testing.T, n, k int) *Code {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := [][2]int{{10, 0}, {10, 10}, {10, 11}, {256, 100}, {0, 0}, {5, -1}}
	for _, nk := range bad {
		if _, err := New(nk[0], nk[1]); err == nil {
			t.Errorf("New(%d,%d) accepted invalid parameters", nk[0], nk[1])
		}
	}
	if _, err := New(255, 128); err != nil {
		t.Errorf("New(255,128) rejected: %v", err)
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	c := mustCode(t, 32, 16)
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 100; trial++ {
		msg := randBytes(rng, 16)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cw) != 32 {
			t.Fatalf("codeword length %d", len(cw))
		}
		got, err := c.Decode(cw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("clean roundtrip failed: %x != %x", got, msg)
		}
	}
}

func TestEncodeRejectsWrongLength(t *testing.T) {
	c := mustCode(t, 16, 8)
	if _, err := c.Encode(make([]byte, 7)); err == nil {
		t.Error("Encode accepted short message")
	}
	if _, err := c.Decode(make([]byte, 15), nil); err == nil {
		t.Error("Decode accepted short codeword")
	}
}

func TestDecodeWithErrors(t *testing.T) {
	c := mustCode(t, 32, 16) // corrects 8 errors
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 200; trial++ {
		msg := randBytes(rng, 16)
		cw, _ := c.Encode(msg)
		nErr := rng.IntN(c.MaxErrors() + 1)
		corrupt(rng, cw, nErr)
		got, err := c.Decode(cw, nil)
		if err != nil {
			t.Fatalf("decode failed with %d errors: %v", nErr, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("wrong decode with %d errors", nErr)
		}
	}
}

func TestDecodeWithErasures(t *testing.T) {
	c := mustCode(t, 32, 16) // 16 parity: corrects 16 pure erasures
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 200; trial++ {
		msg := randBytes(rng, 16)
		cw, _ := c.Encode(msg)
		nEras := rng.IntN(17)
		positions := rng.Perm(32)[:nEras]
		for _, p := range positions {
			cw[p] = byte(rng.UintN(256)) // may or may not change the symbol
		}
		got, err := c.Decode(cw, positions)
		if err != nil {
			t.Fatalf("decode failed with %d erasures: %v", nEras, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("wrong decode with %d erasures", nEras)
		}
	}
}

func TestDecodeErrorsPlusErasures(t *testing.T) {
	c := mustCode(t, 36, 16) // 20 parity: 2e + f <= 20
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 300; trial++ {
		msg := randBytes(rng, 16)
		cw, _ := c.Encode(msg)
		f := rng.IntN(8)
		e := rng.IntN((20-f)/2 + 1)
		perm := rng.Perm(36)
		erasPos := perm[:f]
		errPos := perm[f : f+e]
		for _, p := range erasPos {
			cw[p] = byte(rng.UintN(256))
		}
		for _, p := range errPos {
			cw[p] ^= byte(1 + rng.UintN(255)) // guaranteed change
		}
		got, err := c.Decode(cw, erasPos)
		if err != nil {
			t.Fatalf("decode failed with e=%d f=%d: %v", e, f, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("wrong decode with e=%d f=%d", e, f)
		}
	}
}

func TestDecodeBeyondCapabilityFailsLoudly(t *testing.T) {
	c := mustCode(t, 24, 16) // corrects 4 errors
	rng := rand.New(rand.NewPCG(5, 5))
	failures := 0
	miscorrections := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		msg := randBytes(rng, 16)
		cw, _ := c.Encode(msg)
		corrupt(rng, cw, 10) // far beyond capability
		got, err := c.Decode(cw, nil)
		if err != nil {
			if !errors.Is(err, ErrTooManyCorruptions) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failures++
		} else if !bytes.Equal(got, msg) {
			// RS may mis-decode to a *different valid codeword*; that is
			// information-theoretically unavoidable, but it must be rare.
			miscorrections++
		}
	}
	if failures == 0 {
		t.Error("no decode ever reported failure beyond capability")
	}
	if miscorrections > trials/4 {
		t.Errorf("too many silent miscorrections: %d/%d", miscorrections, trials)
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	c := mustCode(t, 20, 16)
	cw, _ := c.Encode(make([]byte, 16))
	if _, err := c.Decode(cw, []int{0, 1, 2, 3, 4}); !errors.Is(err, ErrTooManyCorruptions) {
		t.Errorf("5 erasures with 4 parity should fail, got %v", err)
	}
	if _, err := c.Decode(cw, []int{-1}); err == nil {
		t.Error("negative erasure position accepted")
	}
	if _, err := c.Decode(cw, []int{20}); err == nil {
		t.Error("out-of-range erasure position accepted")
	}
}

func TestDuplicateErasuresTolerated(t *testing.T) {
	c := mustCode(t, 20, 16)
	msg := []byte("abcdefghijklmnop")
	cw, _ := c.Encode(msg)
	cw[5] ^= 0xff
	got, err := c.Decode(cw, []int{5, 5, 5})
	if err != nil {
		t.Fatalf("duplicate erasures: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong decode with duplicate erasures")
	}
}

func TestSystematicLayout(t *testing.T) {
	c := mustCode(t, 24, 16)
	msg := []byte("0123456789abcdef")
	cw, _ := c.Encode(msg)
	if !bytes.Equal(cw[8:], msg) {
		t.Fatal("codeword is not systematic (data must occupy the tail)")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	c := mustCode(t, 24, 16)
	msg := []byte("0123456789abcdef")
	a, _ := c.Encode(msg)
	b, _ := c.Encode(msg)
	if !bytes.Equal(a, b) {
		t.Fatal("Encode not deterministic")
	}
}

func TestPropertyRoundtripRandomParams(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.IntN(40)
		n := k + 2 + rng.IntN(40)
		if n > 255 {
			n = 255
		}
		c := mustCode(t, n, k)
		msg := randBytes(rng, k)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		e := rng.IntN(c.MaxErrors() + 1)
		corrupt(rng, cw, e)
		got, err := c.Decode(cw, nil)
		if err != nil {
			t.Fatalf("n=%d k=%d e=%d: %v", n, k, e, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("n=%d k=%d e=%d: wrong message", n, k, e)
		}
	}
}

// TestSymbolMatchesEncode checks the table-driven single-symbol path
// against the synthetic-division encoder at every position.
func TestSymbolMatchesEncode(t *testing.T) {
	grid := [][2]int{{2, 1}, {3, 1}, {255, 1}, {8, 4}, {16, 8}, {32, 16}, {30, 10}, {255, 128}, {255, 223}, {255, 254}}
	rng := rand.New(rand.NewPCG(31, 32))
	for _, nk := range grid {
		n, k := nk[0], nk[1]
		c := mustCode(t, n, k)
		msgs := [][]byte{make([]byte, k), bytes.Repeat([]byte{0xff}, k)}
		for trial := 0; trial < 20; trial++ {
			msgs = append(msgs, randBytes(rng, k))
		}
		for _, msg := range msgs {
			cw, err := c.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for pos := 0; pos < n; pos++ {
				if got := c.Symbol(msg, pos); got != cw[pos] {
					t.Fatalf("RS(%d,%d) msg %x pos %d: Symbol %#x, Encode %#x", n, k, msg, pos, got, cw[pos])
				}
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.UintN(256))
	}
	return b
}

// corrupt flips nErr distinct symbols to guaranteed-different values.
func corrupt(rng *rand.Rand, cw []byte, nErr int) {
	perm := rng.Perm(len(cw))
	for i := 0; i < nErr; i++ {
		cw[perm[i]] ^= byte(1 + rng.UintN(255))
	}
}

func BenchmarkEncode32_16(b *testing.B) {
	c, _ := New(32, 16)
	msg := make([]byte, 16)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode32_16_4errors(b *testing.B) {
	c, _ := New(32, 16)
	msg := make([]byte, 16)
	cw, _ := c.Encode(msg)
	cw[3] ^= 0x55
	cw[9] ^= 0x22
	cw[20] ^= 0x77
	cw[31] ^= 0x11
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(cw, nil); err != nil {
			b.Fatal(err)
		}
	}
}
