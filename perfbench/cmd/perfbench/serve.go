package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pinatubo/perfbench/gen"
	"pinatubo/perfbench/oracle"
	"pinatubo/perfbench/span"
	"pinatubo/perfbench/stats"
)

// serve-open shape: 16 tenants over 2 connections (one per CPU), 8
// vectors of 4096 bits each.
const (
	serveTenants = 16
	serveConns   = 2
	serveVecs    = 8
	serveBits    = 4096
	// serveRefRate is the reference offered load (req/s) the end-to-end
	// latency and goodput are measured at. The p99 falls among the
	// requests that arrive during a re-plan stall; the more of those a
	// phase has, the steadier the p99, and at 400 req/s a stall of up to
	// 80 ms still fits the daemon's default backlog of 32 without
	// shedding.
	serveRefRate = 400
	// serveLimit is the latency limit a request must meet to count as
	// served: long enough to ride out the daemon's periodic re-plan
	// stall, short enough that a growing backlog misses it.
	serveLimit = 250 * time.Millisecond
	// serveRung is how long each max-rate ladder rate is offered.
	serveRung = 3 * time.Second
	// serveDrain bounds the wait for outstanding responses after the
	// last send of a phase.
	serveDrain = 20 * time.Second
)

// serveLadder is the offered-rate ladder max_rate_rps climbs.
var serveLadder = []float64{125, 250, 500, 1000, 2000}

// daemon is one pinatubod process listening on loopback.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	errs  *lineWatch
	exitc chan error
}

// lineWatch is the daemon's stderr: it hands the listen address to
// startDaemon and keeps the rest for error reports.
type lineWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if _, rest, ok := strings.Cut(w.buf.String(), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				w.found = true
				w.addr <- addr
			}
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon runs pinatubod with its default flags on an ephemeral
// loopback port and returns once it is listening (after its start-up
// Plan).
func startDaemon(binDir string) (*daemon, error) {
	w := &lineWatch{addr: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(binDir, "pinatubod"), "-listen", "127.0.0.1:0")
	cmd.Stderr = w
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pinatubod: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case addr := <-w.addr:
		return &daemon{cmd: cmd, addr: addr, errs: w, exitc: exited}, nil
	case err := <-exited:
		return nil, fmt.Errorf("pinatubod exited before listening (%v): %s", err, w)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("pinatubod did not listen within 60 s: %s", w)
	}
}

// peakMB is the daemon's peak resident set so far.
func (d *daemon) peakMB() (float64, error) {
	return vmHWM(strconv.Itoa(d.cmd.Process.Pid))
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exitc
}

// reqRec is one request the client sent and what came back.
type reqRec struct {
	tenant    int
	op        gen.Op
	due, sent time.Time
	recv      time.Time
	answered  bool
	ok, shed  bool
	errMsg    string
	count     *int
	words     []uint64
}

// response is the part of pinatubod's reply the client reads.
type response struct {
	ID    int64           `json:"id"`
	OK    bool            `json:"ok"`
	Error string          `json:"error"`
	Shed  bool            `json:"shed"`
	Count *int            `json:"count"`
	Words []string        `json:"words"`
	Stats json.RawMessage `json:"stats"`
}

// request is a request line of pinatubod's protocol: the fields of its
// serve.Request, with the same omitempty tags.
type request struct {
	ID     int64    `json:"id"`
	Tenant string   `json:"tenant,omitempty"`
	Type   string   `json:"type"`
	Name   string   `json:"name,omitempty"`
	Bits   int      `json:"bits,omitempty"`
	Words  []string `json:"words,omitempty"`
	Op     string   `json:"op,omitempty"`
	Dst    string   `json:"dst,omitempty"`
	Srcs   []string `json:"srcs,omitempty"`
}

// client is the load generator: one sending goroutine (the caller's) and
// one reader goroutine per connection.
type client struct {
	conns []net.Conn
	bufs  []*bufio.Writer
	wg    sync.WaitGroup

	mu       sync.Mutex
	recs     []*reqRec
	answered int
	stats    json.RawMessage
	readErr  error
	notify   chan struct{}
}

func dial(addr string) (*client, error) {
	c := &client{notify: make(chan struct{}, 1)}
	for i := 0; i < serveConns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
		c.bufs = append(c.bufs, bufio.NewWriter(conn))
	}
	for _, conn := range c.conns {
		c.wg.Add(1)
		go c.read(conn)
	}
	return c, nil
}

// close shuts the connections and waits for the readers to exit.
func (c *client) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	c.wg.Wait()
}

//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func (c *client) read(conn net.Conn) {
	defer c.wg.Done()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		now := time.Now()
		var r response
		err := json.Unmarshal(sc.Bytes(), &r)
		c.mu.Lock()
		if err != nil || r.ID < 1 || int(r.ID) > len(c.recs) {
			if c.readErr == nil {
				c.readErr = fmt.Errorf("bad response %q: %v", sc.Text(), err)
			}
			c.mu.Unlock()
			continue
		}
		rec := c.recs[r.ID-1]
		if r.Stats != nil {
			c.stats = r.Stats
		}
		if !rec.answered {
			rec.answered, rec.recv = true, now
			rec.ok, rec.shed, rec.errMsg, rec.count = r.OK, r.Shed, r.Error, r.Count
			if r.Words != nil {
				rec.words, err = parseWords(r.Words)
				if err != nil && c.readErr == nil {
					c.readErr = err
				}
			}
			c.answered++
		}
		c.mu.Unlock()
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
}

func parseWords(hex []string) ([]uint64, error) {
	out := make([]uint64, len(hex))
	for i, h := range hex {
		w, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("word %d: %w", i, err)
		}
		out[i] = w
	}
	return out, nil
}

// send registers rec and writes its request line on its tenant's
// connection. A zero due means "now".
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func (c *client) send(rec *reqRec, words []uint64) error {
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	id := len(c.recs)
	c.mu.Unlock()
	line, err := json.Marshal(wireRequest(int64(id), rec, words))
	if err != nil {
		return err
	}
	line = append(line, '\n')
	w := c.bufs[rec.tenant%serveConns]
	rec.sent = time.Now()
	if rec.due.IsZero() {
		rec.due = rec.sent
	}
	if _, err := w.Write(line); err != nil {
		return err
	}
	return w.Flush()
}

// wireRequest spells rec (with the contents words of a write) as a
// request of pinatubod's protocol.
func wireRequest(id int64, rec *reqRec, words []uint64) request {
	vec := func(i int) string { return fmt.Sprintf("v%d", i) }
	r := request{ID: id, Tenant: fmt.Sprintf("t%d", rec.tenant)}
	switch op := rec.op; op.Kind {
	case kindAlloc:
		r.Type, r.Name, r.Bits = "alloc", vec(op.Dst), serveBits
	case kindWrite:
		r.Type, r.Name = "write", vec(op.Dst)
		for _, w := range words {
			r.Words = append(r.Words, strconv.FormatUint(w, 16))
		}
	case kindStats:
		r.Type = "stats"
	case gen.Read:
		r.Type, r.Name = "read", vec(op.Dst)
	default:
		r.Type, r.Op, r.Dst = "op", op.Kind.String(), vec(op.Dst)
		for _, x := range op.Srcs {
			r.Srcs = append(r.Srcs, vec(x))
		}
	}
	return r
}

// Client-only request kinds, past gen's op kinds.
const (
	kindAlloc gen.Kind = 100 + iota
	kindWrite
	kindStats
)

// waitAll waits until every request sent so far is answered or the
// timeout passes, and reports whether all were.
func (c *client) waitAll(timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		done := c.answered == len(c.recs)
		c.mu.Unlock()
		if done {
			return true
		}
		select {
		case <-c.notify:
		case <-deadline:
			return false
		}
	}
}

// serveSetup starts the daemon and allocates and writes every tenant's
// vectors, returning the connected client and the initial contents.
func serveSetup(e env) (*daemon, *client, [][][]uint64, error) {
	d, err := startDaemon(e.binDir)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := dial(d.addr)
	if err != nil {
		d.stop()
		return nil, nil, nil, err
	}
	rng := gen.Rand(e.seed, "serve-open/data")
	mirror := make([][][]uint64, serveTenants)
	for t := range mirror {
		for v := 0; v < serveVecs; v++ {
			words := gen.Words(rng, serveBits/64)
			mirror[t] = append(mirror[t], words)
			if err := c.send(&reqRec{tenant: t, op: gen.Op{Kind: kindAlloc, Dst: v}}, nil); err != nil {
				return d, c, nil, err
			}
			if err := c.send(&reqRec{tenant: t, op: gen.Op{Kind: kindWrite, Dst: v}}, words); err != nil {
				return d, c, nil, err
			}
		}
	}
	if !c.waitAll(serveDrain) {
		return d, c, nil, fmt.Errorf("tenant set-up not answered within %v", serveDrain)
	}
	for _, r := range c.recs {
		if !r.ok {
			return d, c, nil, fmt.Errorf("tenant set-up failed: %s", r.errMsg)
		}
	}
	return d, c, mirror, nil
}

// phase is one offered-load run of the open loop.
type phase struct {
	recs []*reqRec
	lag  []float64 // ms the generator sent each request after it was due
	end  time.Time // the phase's schedule ends here
}

// offer sends a Poisson schedule open loop: each request goes out when
// it is due, whatever the responses are doing, and is timed from then.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func (c *client) offer(seed int64, stream string, rate float64, dur time.Duration) (*phase, error) {
	sched := gen.Schedule(seed, stream, rate, dur, serveTenants, serveVecs)
	start := time.Now()
	p := &phase{end: start.Add(dur)}
	for _, r := range sched {
		due := start.Add(r.Due)
		waitUntil(due)
		rec := &reqRec{tenant: r.Tenant, op: r.Op, due: due}
		if err := c.send(rec, nil); err != nil {
			return p, err
		}
		p.recs = append(p.recs, rec)
		p.lag = append(p.lag, msBetween(due, rec.sent))
	}
	if d := time.Until(p.end); d > 0 {
		time.Sleep(d)
	}
	c.waitAll(serveDrain)
	return p, nil
}

// latencies returns the latency in ms, from due to response, of every
// request of the phase answered OK.
func (p *phase) latencies() []float64 {
	var lats []float64
	for _, r := range p.recs {
		if r.answered && r.ok {
			lats = append(lats, msBetween(r.due, r.recv))
		}
	}
	return lats
}

// Go's timers wake about a millisecond late for sleeps shorter than a
// millisecond (the netpoller waits in whole milliseconds) and up to about
// 0.2 ms late for longer ones, which would add the generator's own
// lateness to every request: with a Go sleep and a yielding spin for the
// last 0.25 ms, a tenth of the requests went out 0.8-1.3 ms late, and the
// lateness made up 0.15-0.26 ms of a p50 of 0.7-1.1 ms. The generator instead
// sleeps in nanosleep, which the kernel wakes on a high-resolution timer,
// until sleepMargin before a request is due, and spins for the rest: at
// 400 req/s that costs about a twelfth of a CPU, and nine in ten requests
// go out less than 0.2 ms late.
const sleepMargin = 200 * time.Microsecond

// waitUntil returns at t.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepMargin; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// An interrupted sleep only ends early, and the spin covers it.
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// served reports whether a request completed OK within the limit.
func served(r *reqRec) bool {
	return r.answered && r.ok && r.recv.Sub(r.due) <= serveLimit
}

// phaseStats summarises the requests of a phase.
type phaseStats struct {
	sent, served, shed int
	maxLate            time.Duration
}

func (p *phase) stats() phaseStats {
	var s phaseStats
	for _, r := range p.recs {
		s.sent++
		if r.shed {
			s.shed++
		}
		if served(r) {
			s.served++
		}
		if !r.answered {
			s.maxLate = serveDrain
		} else if late := r.recv.Sub(p.end); late > s.maxLate {
			s.maxLate = late
		}
	}
	return s
}

// sustained is the max-rate test: at least 99% of the requests sent were
// served within the limit, and the backlog cleared within the limit of
// the last due time (it did not grow without bound).
func (s phaseStats) sustained() bool {
	return s.sent > 0 && float64(s.served) >= 0.99*float64(s.sent) && s.maxLate <= serveLimit
}

// checkTenants replays every tenant's requests in send order on the host
// mirror, skipping shed ops (never executed), and checks every read and
// popcount. It returns the number of failed requests: errors other than
// shedding, unanswered requests and wrong answers.
func checkTenants(mirror [][][]uint64, recs []*reqRec) int {
	failed := 0
	for _, r := range recs {
		if r.op.Kind >= kindAlloc {
			continue
		}
		if !r.answered || (!r.ok && !r.shed) {
			failed++
			continue
		}
		if r.shed {
			continue
		}
		vecs := mirror[r.tenant]
		if r.op.Kind == gen.Read {
			if oracle.WrongBits(r.words, vecs[r.op.Dst], serveBits) > 0 {
				failed++
				copy(vecs[r.op.Dst], r.words)
			}
			continue
		}
		if want := mirrorOp(vecs, r.op, serveBits); r.op.Kind == gen.Popcount && (r.count == nil || *r.count != want) {
			failed++
		}
	}
	return failed
}

// daemonStats is the part of pinatubod's stats reply the benchmark
// reports.
type daemonStats struct {
	Windows            int64   `json:"windows"`
	OpsDone            int64   `json:"ops_done"`
	OpsShed            int64   `json:"ops_shed"`
	SimSeconds         float64 `json:"sim_seconds"`
	ProgramCacheHits   int64   `json:"program_cache_hits"`
	ProgramCacheMisses int64   `json:"program_cache_misses"`
	Latency            struct {
		P99 int64 `json:"P99"`
	} `json:"latency"`
}

// fetchStats asks the daemon for its metrics snapshot.
func (c *client) fetchStats() (daemonStats, error) {
	var ds daemonStats
	if err := c.send(&reqRec{op: gen.Op{Kind: kindStats}}, nil); err != nil {
		return ds, err
	}
	if !c.waitAll(serveDrain) {
		return ds, fmt.Errorf("stats request not answered")
	}
	c.mu.Lock()
	raw := c.stats
	c.mu.Unlock()
	err := json.Unmarshal(raw, &ds)
	return ds, err
}

// runServeOpen is the serve-open workload: the pinatubod binary with its
// default flags, driven open loop with Poisson arrivals by 16 tenants over
// 2 loopback connections.
func runServeOpen(e env, tr *tracer) (outcome, error) {
	var (
		d      *daemon
		c      *client
		mirror [][][]uint64
	)
	defer func() {
		if d != nil {
			c.close()
			d.stop()
		}
	}()
	// Set-up is timed on the daemon's CPU clock: start-up with its Plan,
	// then every tenant's allocs and writes.
	var setups []float64
	for i := 0; i < min(e.setupReps, 11); i++ {
		if d != nil {
			c.close()
			d.stop()
		}
		var err error
		if d, c, mirror, err = serveSetup(e); err != nil {
			return outcome{}, err
		}
		cpu, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, cpu.Seconds())
	}

	out := outcome{layer: map[string]float64{}}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	ref, err := c.offer(e.seed, "ref", serveRefRate, e.seconds)
	if err != nil {
		return out, err
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	phases := []*phase{ref}
	if tr != nil {
		// The ladder runs only in traced runs: max_rate_rps is a
		// per-layer figure.
		for _, rate := range serveLadder {
			p, err := c.offer(e.seed, fmt.Sprintf("rung-%g", rate), rate, serveRung)
			if err != nil {
				return out, err
			}
			phases = append(phases, p)
			c.mu.Lock()
			ok := p.stats().sustained()
			c.mu.Unlock()
			if !ok {
				break
			}
			out.layer["serve.max_rate_rps"] = rate
		}
	}
	ds, err := c.fetchStats()
	if err != nil {
		return out, err
	}
	mem, err := d.peakMB()
	if err != nil {
		return out, err
	}
	// Past this point the readers are gone and every record is final.
	c.close()
	if c.readErr != nil {
		return out, c.readErr
	}
	out.failed = checkTenants(mirror, c.recs)
	var lag []float64
	for _, p := range phases {
		out.attempted += len(p.recs)
		lag = append(lag, p.lag...)
	}
	all := ref.stats()
	lats := ref.latencies()
	fmt.Printf("serve-open: %d requests at %d req/s (%d shed), %d latency samples\n",
		all.sent, serveRefRate, all.shed, len(lats))
	out.e2e = map[string]float64{
		"setup_s":     stats.Median(setups),
		"ops_per_s":   stats.Ratio(float64(all.served), (cpu1 - cpu0).Seconds()),
		"lat_p50_ms":  stats.Percentile(lats, 50),
		"lat_p99_ms":  stats.Percentile(lats, 99),
		"mem_peak_mb": mem,
	}
	if tr != nil {
		// The request spans are built from timestamps the untraced run
		// takes too, so tracing adds no work and trace.overhead_frac
		// stays 0.
		recordRequestSpans(tr.rec, ref)
	}
	out.layer["failed_frac"] = stats.Ratio(float64(out.failed), float64(out.attempted))
	out.layer["serve.shed_frac"] = stats.Ratio(float64(all.shed), float64(all.sent))
	out.layer["sim_ns_per_op"] = stats.Ratio(ds.SimSeconds*1e9, float64(ds.OpsDone))
	out.layer["serve.windows"] = float64(ds.Windows)
	out.layer["serve.ops_per_window"] = stats.Ratio(float64(ds.OpsDone), float64(ds.Windows))
	out.layer["serve.shed"] = float64(ds.OpsShed)
	out.layer["serve.cache_hit_rate"] = stats.Ratio(float64(ds.ProgramCacheHits), float64(ds.ProgramCacheHits+ds.ProgramCacheMisses))
	out.layer["serve.sim_p99_ns"] = float64(ds.Latency.P99)
	out.layer["loadgen.lag_p99_ms"] = stats.Percentile(lag, 99)
	out.layer["loadgen.sent"] = float64(out.attempted)
	return out, nil
}

// recordRequestSpans adds one span per answered reference-phase request,
// from when it was due to when its response arrived, on its connection's
// track, with the generator's send as a child span.
func recordRequestSpans(rec *span.Recorder, p *phase) {
	for i, r := range p.recs {
		if !r.answered {
			continue
		}
		id := rec.Add("pinatubod", "pinatubod."+r.op.Kind.String(), 0, int64(i), r.due, r.recv)
		rec.SetTrack(id, 1+r.tenant%serveConns)
		sid := rec.Add("loadgen", "loadgen.send", id, int64(i), r.due, r.sent)
		rec.SetTrack(sid, 1+r.tenant%serveConns)
	}
}
