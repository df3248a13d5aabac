package main

import (
	"fmt"
	"math/rand/v2"

	"ldphh"
)

// Shared pipeline shape: every workload runs the same round with these
// settings; only the protocol kind and the population differ.
const (
	batchReports    = 1024  // reports per mega-batch, per Report chunk and per replay window
	ingestConns     = 2     // closed-loop relay connections
	checkpointEvery = 65536 // ack-coupled checkpoint cadence, in reports
)

// workload is one benchmark input: a protocol configuration plus the
// population its devices report on.
type workload struct {
	name string
	why  string
	kind ldphh.Kind
	// n is the population size at shrink 0.
	n         int
	eps       float64
	itemBytes int
	// opts are the kind-specific protocol options, on top of eps, n,
	// item width and seed.
	opts []ldphh.Option
	// queryEvery > 0 pipelines one QueryTopK after every queryEvery-th
	// batch on each connection; topK bounds each answer.
	queryEvery int
	topK       int
	// bitIdentical workloads must return exactly the in-process
	// reference answer over TCP; the others depend on arrival order and
	// are checked by recall alone.
	bitIdentical bool
	// params is the description recorded with every result.
	params map[string]any
	synth  func(n int, rng *rand.Rand) (*ldphh.Dataset, error)
}

func workloads() []workload {
	dom4 := ldphh.Domain{ItemBytes: 4}
	dom2 := ldphh.Domain{ItemBytes: 2}
	planted := []float64{0.25, 0.18, 0.12}
	return []workload{
		{
			name: "pes_round",
			why:  "PES (Algorithm 1) at y=64: costliest device encode, a 67.8 MB out-of-cache sketch, checkpoint-dominated ingest, the only Identify doing real work",
			kind: ldphh.PrivateExpanderSketch, n: 1 << 20, eps: 4, itemBytes: 4,
			opts:         []ldphh.Option{ldphh.WithY(64)},
			bitIdentical: true,
			params: map[string]any{
				"protocol": "pes", "population": "planted", "planted": planted,
				"eps": 4.0, "item_bytes": 4, "y": 64,
			},
			synth: func(n int, rng *rand.Rand) (*ldphh.Dataset, error) {
				return ldphh.PlantedDataset(dom4, n, planted, rng)
			},
		},
		{
			name: "stream_query",
			why:  "streamhg with a QueryTopK after every second batch: reads beside writes on one adapter lock; its 1 KB in-cache structure and tiny checkpoints are the contrast to pes_round",
			kind: ldphh.KindStreamHG, n: 1 << 21, eps: 16, itemBytes: 2,
			opts: []ldphh.Option{
				ldphh.WithDomainSize(501), ldphh.WithWindows(4), ldphh.WithTopK(32),
			},
			queryEvery: 2, topK: 32,
			params: map[string]any{
				"protocol": "streamhg", "population": "zipf", "zipf_s": 1.5,
				"support": 500, "eps": 16.0, "item_bytes": 2, "windows": 4, "top_k": 32,
				"query_every_batches": 2, "fresh_device_randomness_per_round": true,
			},
			synth: func(n int, rng *rand.Rand) (*ldphh.Dataset, error) {
				return ldphh.ZipfDataset(dom2, n, 500, 1.5, rng)
			},
		},
	}
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newProtocol builds one instance of the workload's protocol. The device
// side and the server side both call it with the same arguments, which is
// what makes them share public randomness.
func (w workload) newProtocol(n int, seed uint64) (ldphh.Protocol, error) {
	opts := append([]ldphh.Option{
		ldphh.WithEps(w.eps), ldphh.WithN(n),
		ldphh.WithItemBytes(w.itemBytes), ldphh.WithSeed(seed),
	}, w.opts...)
	return ldphh.New(w.kind, opts...)
}
