package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldphh"
	"ldphh/internal/checkpoint"
)

// roundTimeout bounds one round's network calls, so a wedged server fails
// the run instead of hanging it.
const roundTimeout = 60 * time.Second

// pipeline holds what every round of one run shares: the workload, its
// population and the report slab the device phase refills each round.
// The population is kept flat, so the benchmark's own heap holds almost no
// pointers for the collector to trace while the measured layers run.
type pipeline struct {
	w        workload
	seed     uint64
	n        int
	cadence  int
	gens     int
	tmp      string   // parent of the per-round checkpoint directories
	items    []byte   // user i holds items[i*itemBytes : (i+1)*itemBytes]
	heavy    [][]byte // true items at or above the recovery floor (recall's base)
	floor    float64
	slab     []byte // n frames, rewritten by every round's device phase
	frameLen int
	ref      []ldphh.Estimate // the in-process replay's answer
}

// newPipeline synthesizes the population from the seed (generator work,
// untimed) and fixes the recall base: every true item at or above the
// kind's recovery floor.
func newPipeline(w workload, seed uint64, shrink int, tmp string) (*pipeline, error) {
	p := &pipeline{
		w: w, seed: seed, n: w.n >> shrink,
		cadence: checkpointEvery >> shrink,
		gens:    min(runtime.GOMAXPROCS(0), 2),
		tmp:     tmp,
	}
	ds, err := w.synth(p.n, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		return nil, fmt.Errorf("synthesizing %s: %w", w.name, err)
	}
	p.items = make([]byte, 0, p.n*w.itemBytes)
	for _, it := range ds.Items {
		p.items = append(p.items, it...)
	}
	proto, err := w.newProtocol(p.n, seed)
	if err != nil {
		return nil, err
	}
	if c, ok := proto.(ldphh.Calibrated); ok {
		p.floor = c.MinRecoverableFrequency()
	}
	for _, h := range ds.HeavierThan(int(math.Ceil(p.floor))) {
		p.heavy = append(p.heavy, h.Item)
	}
	if len(p.heavy) == 0 {
		return nil, fmt.Errorf("%s: no item reaches the recovery floor %.1f at n=%d", w.name, p.floor, p.n)
	}
	return p, nil
}

// session is one set-up: the device and server instances, the server
// with its checkpoint directory, and the ingest connections.
type session struct {
	device ldphh.Protocol
	agg    ldphh.Protocol
	srv    *ldphh.Server
	conns  []*ldphh.IngestConn
	dir    string
	once   sync.Once
	err    error
}

// setup builds a session and returns how long that took.
func (p *pipeline) setup(ctx context.Context) (*session, time.Duration, error) {
	start := time.Now()
	s := &session{}
	var err error
	if s.device, err = p.w.newProtocol(p.n, p.seed); err != nil {
		return nil, 0, fmt.Errorf("device New: %w", err)
	}
	if s.agg, err = p.w.newProtocol(p.n, p.seed); err != nil {
		return nil, 0, fmt.Errorf("server New: %w", err)
	}
	if s.dir, err = os.MkdirTemp(p.tmp, "ckpt-"); err != nil {
		return nil, 0, err
	}
	s.srv, err = ldphh.NewAggregationServer(s.agg, "127.0.0.1:0",
		ldphh.WithCheckpointDir(s.dir),
		ldphh.WithCheckpointEvery(p.cadence),
		ldphh.WithCheckpointInterval(0),
		ldphh.WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, 0, fmt.Errorf("server start: %w", err)
	}
	for i := 0; i < ingestConns; i++ {
		c, err := ldphh.DialIngest(ctx, s.srv.Addr(), p.w.kind)
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("dial: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	return s, time.Since(start), nil
}

// close tears the session down. Connections close first: the server's
// graceful shutdown waits for open connections to end.
func (s *session) close() error {
	s.once.Do(func() {
		for _, c := range s.conns {
			c.Close()
		}
		s.err = s.srv.Close()
		os.RemoveAll(s.dir)
	})
	return s.err
}

// checks counts verified outcomes; every failed call or wrong answer is
// one failure.
type checks struct {
	attempted, failed int
	errs              []string
}

func (c *checks) add(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 8 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, e := range o.errs {
		if len(c.errs) < 8 {
			c.errs = append(c.errs, e)
		}
	}
}

// roundResult is one measured round.
type roundResult struct {
	checks checks

	setup, round, device, ingest, identify time.Duration
	chunkNs                                []float64 // wall per report of each Report chunk
	acks, queries                          []time.Duration
	sketchBytes                            int
	recall                                 float64
	answerSize                             int

	// Traced rounds only.
	spans      []span
	rootSpan   span
	mallocs    uint64
	scrape     map[string]float64
	replay     replayResult
	queryBusy  time.Duration
	ackBusy    time.Duration
	deviceSelf time.Duration
}

// run executes one full round: set-up, device Report, closed-loop TCP
// ingest with ack-coupled checkpoints and Identify, then the untimed
// in-process replay that supplies the correctness reference.
func (p *pipeline) run(roundIdx int, traced bool) (*roundResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	res := &roundResult{}
	var tr *tracer
	if traced {
		tr = newTracer(roundIdx)
	}
	runtime.GC()
	est, err := p.tcpRound(ctx, roundIdx, res, tr)
	if err != nil {
		return res, err
	}

	// Correctness: recall against ground truth, and for order-independent
	// kinds bit-identity with the in-process replay. The device phase of
	// those kinds is the same in every round, so one replay per run is the
	// reference for all rounds; traced rounds replay again for the layer
	// times. An answer that depends on arrival order is scored by recall
	// alone.
	res.recall = p.recall(est)
	if traced || (p.w.bitIdentical && p.ref == nil) {
		runtime.GC()
		rep, err := p.replay(ctx, tr)
		res.checks.add(err)
		if err != nil {
			return res, fmt.Errorf("in-process replay: %w", err)
		}
		res.replay = rep
		if p.ref == nil {
			p.ref = rep.answer
		}
	}
	if p.w.bitIdentical {
		res.checks.add(sameAnswer(est, p.ref))
	}

	if traced {
		res.spans = tr.spans
		var sends, queries []span
		for _, sp := range tr.spans {
			switch {
			case sp.Parent == 0 && sp.Name == "round":
				res.rootSpan = sp
			case sp.Name == "ingest.send_encoded":
				sends = append(sends, sp)
			case sp.Name == "ingest.query_topk":
				queries = append(queries, sp)
			}
		}
		// Busy time is the union of the calls' intervals, so two
		// connections waiting at once count once.
		res.ackBusy = covered(sends, res.rootSpan.Start, res.rootSpan.End)
		res.queryBusy = covered(queries, res.rootSpan.Start, res.rootSpan.End)
		res.deviceSelf = selfTimes(tr.spans)["device.report_chunk"]
	}
	if res.checks.failed > 0 {
		return res, errors.New(strings.Join(res.checks.errs, "; "))
	}
	return res, nil
}

// tcpRound is the timed part of a round, from set-up to the Identify
// reply. It returns the TCP answer.
func (p *pipeline) tcpRound(ctx context.Context, roundIdx int, res *roundResult, tr *tracer) ([]ldphh.Estimate, error) {
	s, setup, err := p.setup(ctx)
	if err != nil {
		res.checks.add(err)
		return nil, err
	}
	defer s.close()
	res.setup = setup
	if p.frameLen == 0 {
		p.frameLen = s.conns[0].FrameBytes()
		p.slab = make([]byte, p.n*p.frameLen)
	}

	rootID := tr.id()
	roundStart := time.Now()

	// Device phase.
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	devID := tr.id()
	t0 := time.Now()
	chunkNs, err := p.devicePhase(s.device, p.deviceSeed(roundIdx), tr, devID)
	t1 := time.Now()
	tr.record(devID, rootID, "phase.device", t0, t1, p.n)
	res.device, res.chunkNs = t1.Sub(t0), chunkNs
	res.checks.add(err)
	if err != nil {
		return nil, fmt.Errorf("device Report: %w", err)
	}
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		res.mallocs = ms1.Mallocs - ms0.Mallocs
	}

	// Ingest phase.
	ingID := tr.id()
	t0 = time.Now()
	perConn := p.ingestPhase(ctx, s.conns, tr, ingID)
	t1 = time.Now()
	tr.record(ingID, rootID, "phase.ingest", t0, t1, p.n)
	res.ingest = t1.Sub(t0)
	for _, pc := range perConn {
		res.checks.merge(pc.checks)
		res.acks = append(res.acks, pc.acks...)
		res.queries = append(res.queries, pc.queries...)
	}
	if res.checks.failed > 0 {
		return nil, fmt.Errorf("ingest: %s", strings.Join(res.checks.errs, "; "))
	}
	var absorbErr error
	if got := s.srv.Absorbed(); got != p.n {
		absorbErr = fmt.Errorf("server absorbed %d of %d reports", got, p.n)
	}
	res.checks.add(absorbErr)

	// Identify phase.
	idID := tr.id()
	t0 = time.Now()
	est, err := ldphh.RequestIdentifyContext(ctx, s.srv.Addr())
	t1 = time.Now()
	tr.record(0, idID, "identify.request", t0, t1, 0)
	tr.record(idID, rootID, "phase.identify", t0, t1, 0)
	tr.record(rootID, 0, "round", roundStart, t1, p.n)
	res.identify = t1.Sub(t0)
	res.round = t1.Sub(roundStart)
	res.checks.add(err)
	if err != nil {
		return nil, fmt.Errorf("identify: %w", err)
	}
	res.answerSize = len(est)
	res.sketchBytes = s.agg.SketchBytes()

	if tr != nil {
		if res.scrape, err = scrapeMetrics(ctx, s.srv.MetricsAddr()); err != nil {
			res.checks.add(err)
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
	}
	err = s.close()
	res.checks.add(err)
	if err != nil {
		return nil, fmt.Errorf("server close: %w", err)
	}
	return est, nil
}

// devicePhase fills the slab with every user's report, one 1,024-report
// chunk at a time, across the generator goroutines. Each chunk draws from
// its own seeded generator, so the slab is the same however the chunks
// are scheduled. It returns each chunk's wall time per report.
func (p *pipeline) devicePhase(device ldphh.Protocol, seed uint64, tr *tracer, parent int64) ([]float64, error) {
	chunks := (p.n + batchReports - 1) / batchReports
	var next atomic.Int64
	perReport := make([]float64, chunks)
	errs := make([]error, p.gens)
	var wg sync.WaitGroup
	for g := 0; g < p.gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				c := int(next.Add(1) - 1)
				if c >= chunks {
					return
				}
				lo, hi := c*batchReports, min((c+1)*batchReports, p.n)
				rng := rand.New(rand.NewPCG(seed, deviceStream+uint64(c)))
				cs := time.Now()
				for i := lo; i < hi; i++ {
					item := p.items[i*p.w.itemBytes : (i+1)*p.w.itemBytes]
					wr, err := device.Report(item, i, rng)
					if err == nil && len(wr) != p.frameLen {
						err = fmt.Errorf("report of %d bytes, frame is %d", len(wr), p.frameLen)
					}
					if err != nil {
						errs[g] = err
						return
					}
					copy(p.slab[i*p.frameLen:], wr)
				}
				ce := time.Now()
				perReport[c] = float64(ce.Sub(cs).Nanoseconds()) / float64(hi-lo)
				tr.record(0, parent, "device.report_chunk", cs, ce, hi-lo)
			}
		}(g)
	}
	wg.Wait()
	return perReport, errors.Join(errs...)
}

// deviceStream offsets the per-chunk generator streams from the stream
// that synthesizes the population.
const deviceStream = 1 << 32

// deviceSeed returns the device randomness of a round. Bit-identical
// workloads reuse the run's seed, so every round relays the same reports.
// A workload scored by recall draws fresh randomness each round, so its
// recall is a mean over independent rounds rather than one draw per seed.
func (p *pipeline) deviceSeed(round int) uint64 {
	if p.w.bitIdentical {
		return p.seed
	}
	return p.seed + uint64(round+1)*0x9e3779b97f4a7c15
}

// connResult is one relay connection's share of the ingest phase.
type connResult struct {
	acks, queries []time.Duration
	checks        checks
}

// ingestPhase runs the closed loop: connection j relays batches j,
// j+conns, ... and holds each until its durable ack, pipelining a top-k
// query after every queryEvery-th batch when the workload asks for one.
func (p *pipeline) ingestPhase(ctx context.Context, conns []*ldphh.IngestConn, tr *tracer, parent int64) []connResult {
	batches := (p.n + batchReports - 1) / batchReports
	out := make([]connResult, len(conns))
	var wg sync.WaitGroup
	for j, c := range conns {
		wg.Add(1)
		go func(j int, c *ldphh.IngestConn) {
			defer wg.Done()
			r := &out[j]
			sent := 0
			for b := j; b < batches; b += len(conns) {
				lo, hi := b*batchReports, min((b+1)*batchReports, p.n)
				t0 := time.Now()
				err := c.SendEncoded(ctx, p.slab[lo*p.frameLen:hi*p.frameLen])
				t1 := time.Now()
				tr.record(0, parent, "ingest.send_encoded", t0, t1, hi-lo)
				r.acks = append(r.acks, t1.Sub(t0))
				r.checks.add(err)
				if err != nil {
					return
				}
				sent++
				if p.w.queryEvery == 0 || sent%p.w.queryEvery != 0 {
					continue
				}
				t0 = time.Now()
				est, err := c.QueryTopK(ctx, 0)
				t1 = time.Now()
				tr.record(0, parent, "ingest.query_topk", t0, t1, 0)
				r.queries = append(r.queries, t1.Sub(t0))
				if err == nil {
					err = p.checkQuery(est)
				}
				r.checks.add(err)
				if err != nil {
					return
				}
			}
		}(j, c)
	}
	wg.Wait()
	return out
}

// checkQuery validates one live top-k answer: at most topK estimates of
// the workload's item width with finite counts, in non-increasing order.
func (p *pipeline) checkQuery(est []ldphh.Estimate) error {
	if len(est) > p.w.topK {
		return fmt.Errorf("top-k query returned %d estimates, k is %d", len(est), p.w.topK)
	}
	for i, e := range est {
		if len(e.Item) != p.w.itemBytes || math.IsNaN(e.Count) || math.IsInf(e.Count, 0) {
			return fmt.Errorf("top-k query returned a malformed estimate %x=%v", e.Item, e.Count)
		}
		if i > 0 && e.Count > est[i-1].Count {
			return fmt.Errorf("top-k query answer is not sorted by count")
		}
	}
	return nil
}

// recall returns the share of the recall base the answer contains.
func (p *pipeline) recall(est []ldphh.Estimate) float64 {
	got := make(map[string]bool, len(est))
	for _, e := range est {
		got[string(e.Item)] = true
	}
	found := 0
	for _, h := range p.heavy {
		if got[string(h)] {
			found++
		}
	}
	return float64(found) / float64(len(p.heavy))
}

// sameAnswer requires two answers to agree item for item and bit for bit.
func sameAnswer(got, want []ldphh.Estimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("TCP answer has %d estimates, in-process reference %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Item) != string(want[i].Item) ||
			math.Float64bits(got[i].Count) != math.Float64bits(want[i].Count) {
			return fmt.Errorf("TCP answer %d is %x=%v, in-process reference %x=%v",
				i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
	return nil
}

// replayResult is the in-process replay of one round's reports.
type replayResult struct {
	answer    []ldphh.Estimate
	absorb    time.Duration // summed over AbsorbBatch calls
	snapshots []time.Duration
	saves     []time.Duration
	identify  time.Duration
}

// replay folds the round's reports into a fresh aggregator in the same
// 1,024-report windows, then identifies. Traced rounds also snapshot and
// save at the server's checkpoint cadence, timing each call.
func (p *pipeline) replay(ctx context.Context, tr *tracer) (replayResult, error) {
	var out replayResult
	agg, err := p.w.newProtocol(p.n, p.seed)
	if err != nil {
		return out, err
	}
	var mgr *checkpoint.Manager
	var merge ldphh.Mergeable
	if tr != nil {
		var ok bool
		if merge, ok = ldphh.AsMergeable(agg); !ok {
			return out, fmt.Errorf("%v cannot snapshot", p.w.kind)
		}
		dir, err := os.MkdirTemp(p.tmp, "replay-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
		var opts []checkpoint.Option
		if f, ok := agg.(interface{ Fingerprint() uint64 }); ok {
			opts = append(opts, checkpoint.WithFingerprint(f.Fingerprint()))
		}
		if mgr, err = checkpoint.Open(dir, opts...); err != nil {
			return out, err
		}
	}
	rootID := tr.id()
	rootStart := time.Now()
	window := make([]ldphh.WireReport, batchReports)
	for lo := 0; lo < p.n; lo += batchReports {
		hi := min(lo+batchReports, p.n)
		for i := lo; i < hi; i++ {
			window[i-lo] = p.slab[i*p.frameLen : (i+1)*p.frameLen]
		}
		t0 := time.Now()
		err := agg.AbsorbBatch(window[:hi-lo])
		t1 := time.Now()
		tr.record(0, rootID, "replay.absorb_batch", t0, t1, hi-lo)
		out.absorb += t1.Sub(t0)
		if err != nil {
			return out, fmt.Errorf("AbsorbBatch: %w", err)
		}
		if mgr == nil || hi%p.cadence != 0 {
			continue
		}
		t0 = time.Now()
		snap, err := merge.Snapshot()
		t1 = time.Now()
		tr.record(0, rootID, "replay.snapshot", t0, t1, 0)
		out.snapshots = append(out.snapshots, t1.Sub(t0))
		if err == nil {
			_, err = mgr.Save(snap)
			t2 := time.Now()
			tr.record(0, rootID, "replay.save", t1, t2, len(snap))
			out.saves = append(out.saves, t2.Sub(t1))
		}
		if err != nil {
			return out, fmt.Errorf("checkpoint: %w", err)
		}
	}
	t0 := time.Now()
	out.answer, err = agg.Identify(ctx)
	t1 := time.Now()
	tr.record(0, rootID, "replay.identify", t0, t1, 0)
	tr.record(rootID, 0, "replay", rootStart, t1, p.n)
	out.identify = t1.Sub(t0)
	if err != nil {
		return out, fmt.Errorf("Identify: %w", err)
	}
	return out, nil
}

// scrapeMetrics reads the server's own Prometheus exposition into a map
// from series name to value (every series carries one protocol label).
func scrapeMetrics(ctx context.Context, addr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		_, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("series %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
