package core

// Allocation pin for the device path: Report computes only the user's own
// code coordinate (listrec.Code.EncodeAt), so it allocates nothing, and the
// wire adapter's one allocation is the returned frame.

import (
	"math/rand/v2"
	"testing"
)

func TestReportAllocFree(t *testing.T) {
	pr, err := New(Params{Eps: 4, N: 1000, ItemBytes: 4, Y: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	w := pr.Wire()
	rng := rand.New(rand.NewPCG(3, 4))
	item := []byte{0, 0, 0, 1}
	user := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := pr.Report(item, user, rng); err != nil {
			t.Fatal(err)
		}
		user++
	})
	if allocs != 0 {
		t.Errorf("Protocol.Report allocates %.2f objects per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(500, func() {
		if _, err := w.Report(item, user, rng); err != nil {
			t.Fatal(err)
		}
		user++
	})
	if allocs != 1 {
		t.Errorf("PESWire.Report allocates %.2f objects per call, want 1 (the frame)", allocs)
	}
}
