package ldphh_test

// Kernel equivalence suite: Identify is pinned bit-for-bit across every
// registered protocol kind and across worker counts, against golden SHA-256
// digests committed in testdata/kernel_golden.json. The goldens were
// generated from the float64 accumulator kernels, so the int64
// structure-of-arrays rewrite (and any future kernel work) must reproduce
// the exact same output bits — not just the same heavy-hitter set.
//
// Regenerate after an intentional output change (e.g. new randomness
// layout) with:
//
//	go test -run TestKernelEquivalence -update .

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ldphh"
	"ldphh/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kernel_golden.json from the current kernels")

const kernelGoldenPath = "testdata/kernel_golden.json"

// kernelRound runs one deterministic in-process round for the kind at the
// given Identify worker bound and returns a digest of the full ordered
// (item, count-bits) output.
func kernelRound(t *testing.T, kind ldphh.Kind, workers int) string {
	t.Helper()
	// The population-splitting baselines need a larger round for anything to
	// clear their sqrt(n·L)-shaped admission floor (cf. TestNewAllKinds).
	n := 6000
	if kind == ldphh.KindBitstogram || kind == ldphh.KindTreeHist {
		n = 20000
	}
	opts := []ldphh.Option{
		ldphh.WithEps(4), ldphh.WithN(n), ldphh.WithItemBytes(2),
		ldphh.WithSeed(99), ldphh.WithDomainSize(64), ldphh.WithWorkers(workers),
	}
	if kind == ldphh.KindHashtogram {
		cands := make([][]byte, 40)
		for i := range cands {
			cands[i] = ordinalItem(uint64(i), 2)
		}
		opts = append(opts, ldphh.WithCandidates(cands))
	}
	h, err := ldphh.New(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// The same deterministic population TestNewAllKinds plants: one 40%
	// heavy item, one 30% item, a light tail.
	itemFor := func(i int) []byte {
		switch {
		case i%10 < 4:
			return ordinalItem(1, 2)
		case i%10 < 7:
			return ordinalItem(2, 2)
		default:
			return ordinalItem(uint64(3+i%32), 2)
		}
	}
	if it, ok := ldphh.AsInteractive(h); ok {
		// Interactive kinds: drive the rounds, each user reporting in their
		// group's round with the per-(round, user) generator — the digest
		// must come out identical at every worker count.
		for rs := it.RoundState(); !rs.Done; rs = it.RoundState() {
			for i := 0; i < n; i++ {
				wr, err := h.Report(itemFor(i), i, ldphh.RoundRand(99, rs.Round, i))
				if errors.Is(err, ldphh.ErrNotInRound) {
					continue
				}
				if err != nil {
					t.Fatalf("report %d round %d: %v", i, rs.Round, err)
				}
				if err := h.Absorb(wr); err != nil {
					t.Fatalf("absorb %d round %d: %v", i, rs.Round, err)
				}
			}
			if _, err := it.AdvanceRound(); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		rng := rand.New(rand.NewPCG(3, 4))
		for i := 0; i < n; i++ {
			wr, err := h.Report(itemFor(i), i, rng)
			if err != nil {
				t.Fatalf("report %d: %v", i, err)
			}
			if err := h.Absorb(wr); err != nil {
				t.Fatalf("absorb %d: %v", i, err)
			}
		}
	}
	est, err := h.Identify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(est) == 0 {
		t.Fatalf("%v: Identify returned no estimates", kind)
	}
	dig := sha256.New()
	for _, e := range est {
		fmt.Fprintf(dig, "%x:%016x\n", e.Item, math.Float64bits(e.Count))
	}
	return hex.EncodeToString(dig.Sum(nil))
}

// pesWireKey names the PES device-wire digest in the golden file.
const pesWireKey = "pes_device_wire"

// pesWireDigest digests the raw symbols the PES device encoder puts on the
// wire: Code.EncodeAt for every coordinate of a fixed item set. The
// Identify digests alone cannot pin these bits, because a heavy hitter
// survives some encoder changes (e.g. a different fingerprint slot order)
// that still change every report.
func pesWireDigest(t *testing.T) string {
	t.Helper()
	pr, err := core.New(core.Params{Eps: 4, N: 6000, ItemBytes: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	code := pr.Code()
	dig := sha256.New()
	for i := uint64(0); i < 64; i++ {
		item := ordinalItem(i*1031, 2)
		for m := 0; m < code.M(); m++ {
			sym, err := code.EncodeAt(item, m)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(dig, "%x:%d:%d:%x\n", item, m, sym.Y, sym.Z)
		}
	}
	return hex.EncodeToString(dig.Sum(nil))
}

// TestKernelEquivalence checks all three contracts at once: Identify output
// is identical at Workers ∈ {1, 4, GOMAXPROCS} for every kind, and equal to
// the committed pre-rewrite golden digest.
func TestKernelEquivalence(t *testing.T) {
	golden := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(kernelGoldenPath)
		if err != nil {
			t.Fatalf("read goldens (regenerate with -update): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("parse goldens: %v", err)
		}
	}
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	got := map[string]string{}
	for _, kind := range ldphh.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := kernelRound(t, kind, workerSet[0])
			for _, w := range workerSet[1:] {
				if d := kernelRound(t, kind, w); d != base {
					t.Errorf("Identify digest at Workers=%d differs from Workers=%d: %s != %s",
						w, workerSet[0], d, base)
				}
			}
			got[kind.String()] = base
			if !*updateGolden {
				want, ok := golden[kind.String()]
				if !ok {
					t.Fatalf("no golden digest for %v (regenerate with -update)", kind)
				}
				if base != want {
					t.Errorf("Identify digest %s, want golden %s — kernel output changed bits", base, want)
				}
			}
		})
	}
	t.Run(pesWireKey, func(t *testing.T) {
		d := pesWireDigest(t)
		got[pesWireKey] = d
		if !*updateGolden && d != golden[pesWireKey] {
			t.Errorf("PES device-wire digest %s, want golden %s — EncodeAt output changed bits", d, golden[pesWireKey])
		}
	})
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(kernelGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", kernelGoldenPath)
	}
}
