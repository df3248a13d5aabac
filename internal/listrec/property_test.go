package listrec

import (
	"math/rand/v2"
	"testing"
)

// TestDefinition35Property is a randomized property test of the
// unique-list-recovery guarantee: across random code instances, random item
// sets and random per-item coordinate drops within the tolerance, every
// surviving item must be recovered.
func TestDefinition35Property(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized property sweep")
	}
	p := Params{ItemBytes: 8, M: 16, Y: 256, F: 4, D: 6}
	const rounds = 25
	for round := 0; round < rounds; round++ {
		seed := uint64(1000 + round)
		c, err := New(p, rand.New(rand.NewPCG(seed, seed^0xff)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 77))
		nItems := 1 + rng.IntN(8)
		var items [][]byte
		for i := 0; i < nItems; i++ {
			items = append(items, randItem(rng, 8))
		}
		lists := buildLists(c, items)
		// Drop up to 2 coordinates' symbols of the FIRST item (well within
		// the RS(16,8) erasure budget even after unique-Y collisions).
		drop := rng.IntN(3)
		enc, err := c.Encode(items[0])
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(c.M())
		for _, m := range perm[:drop] {
			for i, s := range lists[m] {
				if s == enc[m] {
					lists[m] = append(lists[m][:i:i], lists[m][i+1:]...)
					break
				}
			}
		}
		got, err := c.Decode(lists, 1)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, it := range items {
			if !containsItem(got, it) {
				t.Errorf("round %d (seed %d, %d items, drop %d): item %x lost",
					round, seed, nItems, drop, it)
			}
		}
		// No unverifiable phantoms: every output must re-verify by
		// construction, so the count stays within a small factor.
		if len(got) > 2*nItems+2 {
			t.Errorf("round %d: %d outputs for %d items", round, len(got), nItems)
		}
	}
}

// TestDecodeAllCoordinatesCorrupted is the failure-injection counterpart:
// when more coordinates are corrupted than the code tolerates, Decode must
// return nothing for that item (never a wrong item that passes
// verification).
func TestDecodeAllCoordinatesCorrupted(t *testing.T) {
	p := Params{ItemBytes: 8, M: 16, Y: 256, F: 4, D: 6}
	c, err := New(p, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	item := randItem(rng, 8)
	lists := buildLists(c, [][]byte{item})
	// Corrupt the payloads of 12 of 16 coordinates — far beyond tolerance.
	perm := rng.Perm(c.M())
	for _, m := range perm[:12] {
		lists[m][0].Z ^= 0x5a5a & (1<<uint(c.ZBits()) - 1)
	}
	got, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	if containsItem(got, item) {
		t.Error("item recovered despite 12/16 corrupted coordinates (miracle or bug)")
	}
	for _, g := range got {
		if !c.verify(g, lists) {
			t.Errorf("unverified phantom output %x", g)
		}
	}
}

// referenceEncode is the whole-codeword encoder EncodeAt replaced: one RS
// encode, all M hashes, then every coordinate packed from those. It pins
// EncodeAt and Encode to the original symbol layout.
func referenceEncode(c *Code, item []byte) []Symbol {
	cw, err := c.rs.Encode(item)
	if err != nil {
		panic(err)
	}
	key := c.fold.Fold(item)
	ys := make([]int, c.p.M)
	for m := range ys {
		ys[m] = c.hs[m].Range(key, c.p.Y)
	}
	out := make([]Symbol, c.p.M)
	for m := range out {
		var z uint64
		for k := c.dEff - 1; k >= 0; k-- {
			z = z<<uint(c.fBits) | c.fingerprint(m, k, ys[c.exp.Neighbor(m, k)])
		}
		for b := c.p.ChunkBytes - 1; b >= 0; b-- {
			z = z<<8 | uint64(cw[m*c.p.ChunkBytes+b])
		}
		out[m] = Symbol{Y: ys[m], Z: z}
	}
	return out
}

// TestEncodeAtMatchesEncode checks, for random items, that EncodeAt(x, m)
// equals Encode(x)[m] and the whole-codeword reference at every m, across
// the code shapes the protocols use.
func TestEncodeAtMatchesEncode(t *testing.T) {
	shapes := []struct {
		name string
		p    Params
	}{
		{"item2_complete_graph", Params{ItemBytes: 2, M: 5, Y: 32, F: 8, D: 8}},
		{"item2_pes_default", Params{ItemBytes: 2, M: 4, Y: 64, F: 2, D: 4}},
		{"item4", Params{ItemBytes: 4, M: 8, Y: 64, F: 2, D: 4}},
		{"item8", testParams()},
		{"chunk2", Params{ItemBytes: 8, M: 8, ChunkBytes: 2, Y: 64, F: 4, D: 4}},
		{"f_equals_y", Params{ItemBytes: 4, M: 12, Y: 64, F: 64, D: 4}},
	}
	for i, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			c := mustCode(t, sh.p, uint64(40+i))
			rng := rand.New(rand.NewPCG(uint64(i), 99))
			for trial := 0; trial < 200; trial++ {
				item := randItem(rng, sh.p.ItemBytes)
				enc, err := c.Encode(item)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceEncode(c, item)
				for m := 0; m < c.M(); m++ {
					got, err := c.EncodeAt(item, m)
					if err != nil {
						t.Fatal(err)
					}
					if got != enc[m] || got != ref[m] {
						t.Fatalf("item %x coordinate %d: EncodeAt %+v, Encode %+v, reference %+v",
							item, m, got, enc[m], ref[m])
					}
				}
			}
		})
	}
}

func TestEncodeAtRejectsBadInput(t *testing.T) {
	c := mustCode(t, testParams(), 47)
	item := make([]byte, testParams().ItemBytes)
	for _, bad := range [][]byte{nil, item[:7], append(item, 0)} {
		if _, err := c.EncodeAt(bad, 0); err == nil {
			t.Errorf("EncodeAt accepted a %d-byte item", len(bad))
		}
	}
	for _, m := range []int{-1, c.M(), c.M() + 5} {
		if _, err := c.EncodeAt(item, m); err == nil {
			t.Errorf("EncodeAt accepted coordinate %d of %d", m, c.M())
		}
	}
}
