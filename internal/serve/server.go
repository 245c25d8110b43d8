package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pinatubo"
)

// Config configures a Server.
type Config struct {
	// System is the simulator the server fronts. The server's state loop
	// becomes its owning goroutine; nothing else may touch it while Run
	// is live.
	System *pinatubo.System
	// Arb is the channel arbitration policy windows schedule under.
	Arb pinatubo.Arbiter
	// WindowCap bounds ops per batch window. 0 asks the planner once, in
	// New: the cap becomes the System's saturation point for deep ORs —
	// the concurrency past which more in-flight ops stop paying.
	WindowCap int
	// QueueLimit bounds the total backlog (queued requests across
	// tenants) before the admission controller sheds load. 0 defaults to
	// 8 windows' worth.
	QueueLimit int
}

// Server is pinatubod's core: a single state-loop goroutine that owns the
// System and pipelines batch windows. Requests admitted while window N's
// shards execute are validated, footprinted and sharded into window
// N+1's builder; at the window boundary the finished shards merge, the
// queues drain fairly, and the next window launches. Connection
// goroutines never touch the System — they only move Requests in and
// Responses out.
type Server struct {
	sys        *pinatubo.System
	arb        pinatubo.Arbiter
	windowCap  int
	queueLimit int

	reqCh chan envelope
	now   func() time.Time

	// State-loop-owned fields — no locking, single goroutine. The
	// pinlint:owned directives make the convention machine-checked:
	// loopowner flags any access outside Run's call tree or from a
	// goroutine-reachable function.
	tenants  map[string]*tenant     //pinlint:owned Run
	builder  *pinatubo.BatchBuilder //pinlint:owned Run
	pending  []windowOp             //pinlint:owned Run
	run      *pinatubo.BatchRun     //pinlint:owned Run
	running  []windowOp             //pinlint:owned Run
	windowID int64                  //pinlint:owned Run
	queued   int                    //pinlint:owned Run

	mu  sync.Mutex
	met *metricsState
}

// New sizes the admission window (consulting the System's planner when
// Config.WindowCap is 0) and returns a ready Server. Run starts serving.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("serve: Config.System is nil")
	}
	s := &Server{
		sys:        cfg.System,
		arb:        cfg.Arb,
		windowCap:  cfg.WindowCap,
		queueLimit: cfg.QueueLimit,
		reqCh:      make(chan envelope, 256),
		now:        time.Now,
		tenants:    make(map[string]*tenant),
	}
	if s.windowCap < 1 {
		// Plan runs on sandboxes, so sizing never disturbs the System. At
		// fault rate 0 its answer depends only on the immutable Config,
		// the op, the probe and the arbiter, so it is asked once.
		rep, err := s.sys.Plan(pinatubo.OpOr, planProbe, 0, pinatubo.WithArbiter(s.arb))
		if err != nil {
			return nil, fmt.Errorf("serve: sizing window: %w", err)
		}
		s.windowCap = max(rep.SaturationPoint, 1)
	}
	if s.queueLimit < 1 {
		s.queueLimit = s.windowCap * 8
	}
	s.builder = s.sys.NewBatchBuilder()
	s.met = newMetricsState(s.now())
	return s, nil
}

// planProbe is the concurrency the window-sizing plan explores.
const planProbe = 16

// Metrics snapshots the server's sustained-throughput and fairness
// figures. Safe from any goroutine.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	m := s.met.snapshot(s.now())
	s.mu.Unlock()
	m.WindowCap = s.windowCap
	return m
}

// metric runs one mutation of the metrics state under the lock.
func (s *Server) metric(f func(*metricsState)) {
	s.mu.Lock()
	f(s.met)
	s.mu.Unlock()
}

// Run is the state loop. It owns the System until it returns: requests
// arrive over the channel, windows launch and land, and on ctx
// cancellation the in-flight window is discarded all-or-nothing (its
// sandboxes never merge) and every waiting request is answered with an
// error.
func (s *Server) Run(ctx context.Context) error {
	for {
		var done <-chan struct{}
		if s.run != nil {
			done = s.run.Done()
		}
		select {
		case <-ctx.Done():
			s.shutdown()
			return ctx.Err()
		case env := <-s.reqCh:
			s.handle(ctx, env)
		case <-done:
			s.boundary(ctx)
		}
	}
}

// Serve accepts connections until the listener closes or ctx is
// cancelled, handing each to HandleConn. Callers run the state loop
// (Run) themselves.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		s.HandleConn(conn)
	}
}

// HandleConn attaches one client connection: a reader goroutine decodes
// line-delimited JSON requests into the state loop, and a writer
// goroutine drains the connection's outbox. Responses to a request may
// arrive out of line-order (ops answer at window boundaries); clients
// match on ID.
func (s *Server) HandleConn(conn net.Conn) {
	ob := newOutbox()
	go func() {
		defer conn.Close()
		enc := json.NewEncoder(conn)
		for {
			resp, ok := ob.pop()
			if !ok {
				return
			}
			if err := enc.Encode(resp); err != nil {
				ob.discard()
				return
			}
		}
	}()
	go func() {
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		var received int64
		for sc.Scan() {
			line := sc.Bytes()
			received++
			var req Request
			if err := json.Unmarshal(line, &req); err != nil {
				ob.push(Response{Error: fmt.Sprintf("serve: bad request: %v", err)})
				continue
			}
			s.reqCh <- envelope{req: req, out: ob}
		}
		if err := sc.Err(); err != nil {
			// An over-long line or a read error ends the session; the
			// client still gets one error response before the close.
			received++
			ob.push(Response{Error: fmt.Sprintf("serve: reading request: %v", err)})
		}
		// EOF only half-closes: a pipe client may have sent its whole
		// script and still be reading, so the writer stays until every
		// received request has been answered (each request gets exactly
		// one response — at admission, a window boundary, a drain, or
		// shutdown).
		ob.closeAfter(received)
	}()
}

// tenantFor returns (creating on first use) the tenant named by the
// request. The empty tenant name is a valid single-tenant default.
func (s *Server) tenantFor(name string) *tenant {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name, vecs: make(map[string]*pinatubo.BitVector)}
		s.tenants[name] = t
	}
	return t
}

// reap forgets a tenant that is idle and holds no vectors. tenantFor
// recreates an identical empty tenant on its next request, so admission
// and drain order are unchanged, while tenantShare and drain scan only
// live tenants instead of every name ever seen. The metrics ledger keeps
// the tenant's counts.
func (s *Server) reap(t *tenant) {
	if t.idle() && len(t.vecs) == 0 {
		delete(s.tenants, t.name)
	}
}

// handle admits one request: stats answer immediately; host-path
// requests run now when their tenant is idle and no window is executing,
// else queue behind the tenant's earlier traffic; ops join the next
// window up to the cap and the tenant's fair share, then queue, then
// shed once the backlog passes the limit.
func (s *Server) handle(ctx context.Context, env envelope) {
	req := env.req
	switch req.Type {
	case "stats":
		m := s.Metrics()
		env.out.push(Response{ID: req.ID, OK: true, Stats: &m})
		return
	case "alloc", "write", "read", "free":
		t := s.tenantFor(req.Tenant)
		defer s.reap(t)
		if s.run == nil && t.idle() {
			s.execHost(t, env)
			return
		}
		s.enqueue(t, env)
	case "op":
		t := s.tenantFor(req.Tenant)
		defer s.reap(t)
		if len(t.queue) > 0 {
			// Earlier requests of this tenant are still queued; jumping
			// past them would break per-tenant program order.
			s.enqueue(t, env)
			return
		}
		if s.run == nil {
			// Idle: the op opens a window immediately; ops arriving while
			// it executes will accumulate into the next one.
			if s.admitOp(t, env) {
				s.startWindow(ctx)
			}
			return
		}
		if s.builder.Len() < s.windowCap && t.pendingOps < s.tenantShare(t) {
			s.admitOp(t, env)
			return
		}
		s.enqueue(t, env)
	default:
		env.out.push(Response{ID: req.ID, Error: fmt.Sprintf("serve: unknown request type %q", req.Type)})
	}
}

// enqueue appends to the tenant's FIFO, shedding when the server-wide
// backlog has passed the limit — the admission controller's load-
// shedding rung.
func (s *Server) enqueue(t *tenant, env envelope) {
	if s.queued >= s.queueLimit {
		env.out.push(Response{ID: env.req.ID, Shed: true,
			Error: "serve: saturated, request shed"})
		s.metric(func(m *metricsState) {
			m.opsShed++
			m.tenant(t.name).Shed++
		})
		return
	}
	t.queue = append(t.queue, env)
	s.queued++
}

// tenantShare is the per-tenant slot budget of the next window: the cap
// split across currently contending tenants, at least 1.
func (s *Server) tenantShare(t *tenant) int {
	active := 0
	for _, other := range s.tenants {
		if other == t || other.contending() {
			active++
		}
	}
	if active < 1 {
		active = 1
	}
	share := s.windowCap / active
	if share < 1 {
		share = 1
	}
	return share
}

// admitOp resolves the op's vectors, validates it through the builder
// (footprint + incremental sharding) and records who to answer at the
// window boundary.
func (s *Server) admitOp(t *tenant, env envelope) bool {
	op, err := s.buildOp(t, env.req)
	if err != nil {
		env.out.push(Response{ID: env.req.ID, Error: err.Error()})
		return false
	}
	if err := s.builder.Add(op); err != nil {
		env.out.push(Response{ID: env.req.ID, Error: err.Error()})
		return false
	}
	s.pending = append(s.pending, windowOp{t: t, env: env})
	t.pendingOps++
	s.metric(func(m *metricsState) { m.tenant(t.name).Admitted++ })
	return true
}

// buildOp maps wire vector names onto the tenant's arena.
func (s *Server) buildOp(t *tenant, req Request) (pinatubo.BatchOp, error) {
	op, err := parseOp(req.Op)
	if err != nil {
		return pinatubo.BatchOp{}, err
	}
	dst, ok := t.vecs[req.Dst]
	if !ok {
		return pinatubo.BatchOp{}, fmt.Errorf("serve: unknown vector %q", req.Dst)
	}
	srcs := make([]*pinatubo.BitVector, len(req.Srcs))
	for i, name := range req.Srcs {
		v, ok := t.vecs[name]
		if !ok {
			return pinatubo.BatchOp{}, fmt.Errorf("serve: unknown vector %q", name)
		}
		srcs[i] = v
	}
	return pinatubo.BatchOp{Op: op, Dst: dst, Srcs: srcs}, nil
}

// startWindow launches the accumulated builder as the next window. On a
// launch error every pending op is answered with it and the builder is
// rebuilt empty.
func (s *Server) startWindow(ctx context.Context) {
	if s.builder.Len() == 0 {
		return
	}
	run, err := s.builder.Start(pinatubo.WithArbiter(s.arb), pinatubo.WithContext(ctx))
	if err != nil {
		for _, w := range s.pending {
			w.t.pendingOps--
			w.env.out.push(Response{ID: w.env.req.ID, Error: err.Error()})
		}
		s.pending = nil
		s.builder = s.sys.NewBatchBuilder()
		return
	}
	s.windowID++
	s.run = run
	s.running = s.pending
	s.pending = nil
	for _, w := range s.running {
		w.t.pendingOps--
		w.t.inflight++
	}
}

// boundary lands a finished window: merge (inside Wait), answer its ops,
// drain the queues fairly into the next builder, launch it and forget
// the tenants left idle and empty.
func (s *Server) boundary(ctx context.Context) {
	br, err := s.run.Wait()
	s.run = nil
	running := s.running
	s.running = nil
	if err != nil {
		for _, w := range running {
			w.t.inflight--
			w.env.out.push(Response{ID: w.env.req.ID, Error: err.Error()})
		}
	} else {
		for i, w := range running {
			w.t.inflight--
			res := br.Results[i]
			w.env.out.push(Response{
				ID:        w.env.req.ID,
				OK:        true,
				Window:    s.windowID,
				LatencyNS: int64(br.Completion[i]),
				Class:     res.Class.String(),
				Count:     res.Count,
			})
		}
		perf := s.sys.PerfStats()
		s.metric(func(m *metricsState) {
			m.windows++
			m.opsDone += int64(len(running))
			m.simSeconds += br.Makespan.Seconds()
			m.windowLatencies = append(m.windowLatencies, br.Makespan)
			for i := range running {
				m.opLatencies = append(m.opLatencies, br.Completion[i])
			}
			m.perf = perf
		})
	}
	s.drain(ctx)
	s.startWindow(ctx)
	for _, t := range s.tenants {
		s.reap(t)
	}
}

// drain moves queued requests forward at a window boundary: round-robin
// over tenants in name order, one request per tenant per round, host
// requests running in place (no window is executing here) and ops
// filling the next builder up to the cap and each tenant's share.
func (s *Server) drain(ctx context.Context) {
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for progress := true; progress; {
		progress = false
		for _, name := range names {
			t := s.tenants[name]
			if len(t.queue) == 0 {
				continue
			}
			env := t.queue[0]
			if env.req.Type == "op" {
				if s.builder.Len() >= s.windowCap || t.pendingOps >= s.tenantShare(t) {
					continue
				}
				t.queue = t.queue[1:]
				s.queued--
				s.admitOp(t, env)
				progress = true
				continue
			}
			// Host-path request: runs only once every earlier op of the
			// tenant has left the builder and completed.
			if t.pendingOps > 0 || t.inflight > 0 {
				continue
			}
			t.queue = t.queue[1:]
			s.queued--
			s.execHost(t, env)
			progress = true
		}
	}
}

// execHost runs one host-path request on the live System. Only called
// when no window is executing and the tenant has no earlier traffic in
// flight, so the request observes and produces exactly the sequential
// program-order state.
func (s *Server) execHost(t *tenant, env envelope) {
	req := env.req
	s.metric(func(m *metricsState) {
		m.hostOps++
		m.tenant(t.name).HostOps++
	})
	fail := func(err error) {
		env.out.push(Response{ID: req.ID, Error: err.Error()})
	}
	switch req.Type {
	case "alloc":
		if _, exists := t.vecs[req.Name]; exists {
			fail(fmt.Errorf("serve: vector %q already allocated", req.Name))
			return
		}
		v, err := s.sys.Alloc(req.Bits)
		if err != nil {
			fail(err)
			return
		}
		t.vecs[req.Name] = v
		env.out.push(Response{ID: req.ID, OK: true})
	case "write":
		v, ok := t.vecs[req.Name]
		if !ok {
			fail(fmt.Errorf("serve: unknown vector %q", req.Name))
			return
		}
		words, err := decodeWords(req.Words)
		if err != nil {
			fail(err)
			return
		}
		res, err := s.sys.Write(v, words)
		if err != nil {
			fail(err)
			return
		}
		env.out.push(Response{ID: req.ID, OK: true,
			LatencyNS: int64(res.Latency), Class: res.Class.String()})
	case "read":
		v, ok := t.vecs[req.Name]
		if !ok {
			fail(fmt.Errorf("serve: unknown vector %q", req.Name))
			return
		}
		words, res, err := s.sys.Read(v)
		if err != nil {
			fail(err)
			return
		}
		env.out.push(Response{ID: req.ID, OK: true, Words: encodeWords(words),
			LatencyNS: int64(res.Latency), Class: res.Class.String()})
	case "free":
		v, ok := t.vecs[req.Name]
		if !ok {
			fail(fmt.Errorf("serve: unknown vector %q", req.Name))
			return
		}
		if err := s.sys.Free(v); err != nil {
			fail(err)
			return
		}
		delete(t.vecs, req.Name)
		env.out.push(Response{ID: req.ID, OK: true})
	}
}

// shutdown answers everything still waiting after ctx cancellation. The
// in-flight window's Wait returns the context error without merging, so
// the System holds exactly the state of the last landed window.
func (s *Server) shutdown() {
	if s.run != nil {
		br, err := s.run.Wait()
		s.run = nil
		for i, w := range s.running {
			w.t.inflight--
			if err != nil {
				w.env.out.push(Response{ID: w.env.req.ID, Error: "serve: shutting down"})
				continue
			}
			// The window finished (and merged) before the cancellation
			// landed; its ops deserve their real answers.
			res := br.Results[i]
			w.env.out.push(Response{ID: w.env.req.ID, OK: true, Window: s.windowID,
				LatencyNS: int64(br.Completion[i]), Class: res.Class.String(), Count: res.Count})
		}
		s.running = nil
	}
	for _, w := range s.pending {
		w.t.pendingOps--
		w.env.out.push(Response{ID: w.env.req.ID, Error: "serve: shutting down"})
	}
	s.pending = nil
	s.builder = s.sys.NewBatchBuilder()
	for _, t := range s.tenants {
		for _, env := range t.queue {
			env.out.push(Response{ID: env.req.ID, Error: "serve: shutting down"})
		}
		s.queued -= len(t.queue)
		t.queue = nil
	}
}

// outbox is an unbounded per-connection response queue: the state loop
// pushes without ever blocking on a slow client, and the connection's
// writer goroutine drains in order.
type outbox struct {
	mu     sync.Mutex
	queue  []Response
	signal chan struct{}
	// eof is set when the reader stops; expected is how many requests it
	// received, sent how many responses the writer has dequeued. The
	// writer exits once eof && sent == expected.
	eof      bool
	expected int64
	sent     int64
	dead     bool
}

func newOutbox() *outbox {
	return &outbox{signal: make(chan struct{}, 1)}
}

func (o *outbox) push(r Response) {
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return
	}
	o.queue = append(o.queue, r)
	o.mu.Unlock()
	select {
	case o.signal <- struct{}{}:
	default:
	}
}

// pop blocks for the next response; ok=false means the connection is
// done — every request received before EOF has had its response
// delivered (or a write error killed the connection).
func (o *outbox) pop() (Response, bool) {
	for {
		o.mu.Lock()
		if len(o.queue) > 0 {
			r := o.queue[0]
			o.queue = o.queue[1:]
			o.sent++
			o.mu.Unlock()
			return r, true
		}
		done := o.dead || (o.eof && o.sent >= o.expected)
		o.mu.Unlock()
		if done {
			return Response{}, false
		}
		<-o.signal
	}
}

// closeAfter marks that no further requests will arrive (reader saw
// EOF) after expected requests in total; the writer exits once each has
// been answered.
func (o *outbox) closeAfter(expected int64) {
	o.mu.Lock()
	o.eof = true
	o.expected = expected
	o.mu.Unlock()
	select {
	case o.signal <- struct{}{}:
	default:
	}
}

// discard drops the outbox after a write error: future pushes are no-ops.
func (o *outbox) discard() {
	o.mu.Lock()
	o.dead = true
	o.queue = nil
	o.mu.Unlock()
	select {
	case o.signal <- struct{}{}:
	default:
	}
}
