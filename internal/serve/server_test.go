package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"pinatubo"
)

// serveGeometry spreads consecutive operand groups across banks (one
// subarray per bank), the layout under which disjoint ops run one per
// shard — which keeps even the float ledger merge bit-identical to
// sequential order.
func serveGeometry() pinatubo.Geometry {
	return pinatubo.Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     8,
		BanksPerChip:     16,
		SubarraysPerBank: 1,
		MatsPerSubarray:  16,
		RowsPerSubarray:  256,
		MatRowBits:       4096,
		MuxRatio:         32,
	}
}

// collector is a synchronous sink for white-box tests driven on one
// goroutine.
type collector struct {
	resps []Response
}

func (c *collector) push(r Response) { c.resps = append(c.resps, r) }

func (c *collector) byID(id int64) (Response, bool) {
	for _, r := range c.resps {
		if r.ID == id {
			return r, true
		}
	}
	return Response{}, false
}

// driver feeds requests straight into the state machine — no goroutines,
// no timing: admission, window boundaries and drains happen exactly
// where the test puts them.
type driver struct {
	t      *testing.T
	s      *Server
	ctx    context.Context
	nextID int64
}

func newDriver(t *testing.T, cfg Config) (*driver, *Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &driver{t: t, s: s, ctx: context.Background()}, s
}

// send dispatches one request and returns its ID.
func (d *driver) send(out sink, req Request) int64 {
	d.nextID++
	req.ID = d.nextID
	d.s.handle(d.ctx, envelope{req: req, out: out})
	return req.ID
}

// land runs window boundaries until the server is idle.
func (d *driver) land() {
	for d.s.run != nil {
		<-d.s.run.Done()
		d.s.boundary(d.ctx)
	}
}

// mustOK sends and requires an immediate OK response.
func (d *driver) mustOK(out *collector, req Request) Response {
	d.t.Helper()
	id := d.send(out, req)
	r, ok := out.byID(id)
	if !ok {
		d.t.Fatalf("request %d (%s) not answered synchronously", id, req.Type)
	}
	if !r.OK {
		d.t.Fatalf("request %d (%s): %s", id, req.Type, r.Error)
	}
	return r
}

func hexWords(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.FormatUint(rng.Uint64(), 16)
	}
	return out
}

// TestServeDifferential pins the pipelined window server to the
// sequential baseline: a scripted request stream — allocs, writes, ops
// spread across several pipelined windows, reads — produces responses
// and a final System state bit-identical to a twin executing the same
// program through Alloc/Write/Apply/Read in arrival order. Runs clean
// and with a fault injector attached.
func TestServeDifferential(t *testing.T) {
	cases := []struct {
		name string
		cfg  pinatubo.Config
	}{
		{"pcm", pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry()}},
		{"pcm-faulty-readback", pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry(),
			Resilience: pinatubo.ResilienceConfig{Verify: pinatubo.VerifyReadback},
			Fault:      pinatubo.FaultConfig{Seed: 3, SenseFlipRate: 1e-3, ActivationFailRate: 1e-4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := pinatubo.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := pinatubo.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, srv := newDriver(t, Config{System: sys, WindowCap: 4})
			out := &collector{}

			const bits = 4096
			words := (bits + 63) / 64
			rngA := rand.New(rand.NewSource(11))
			rngB := rand.New(rand.NewSource(11))

			// One operand group per op so ops land in distinct banks. The
			// twin allocates in the same order, so rows match exactly.
			type opSpec struct {
				op   string
				nsrc int
			}
			specs := []opSpec{{"or", 4}, {"and", 2}, {"xor", 2}, {"not", 1}, {"copy", 1}, {"popcount", 0}}
			type built struct {
				spec  opSpec
				names []string // srcs then dst
				dst   *pinatubo.BitVector
				srcs  []*pinatubo.BitVector
			}
			var all []built
			for gi, spec := range specs {
				b := built{spec: spec}
				tg, err := twin.AllocGroup(spec.nsrc+1, bits)
				if err != nil {
					t.Fatal(err)
				}
				for vi := 0; vi <= spec.nsrc; vi++ {
					name := fmt.Sprintf("v%d_%d", gi, vi)
					b.names = append(b.names, name)
					d.mustOK(out, Request{Type: "alloc", Name: name, Bits: bits})
					data := hexWords(rngA, words)
					d.mustOK(out, Request{Type: "write", Name: name, Words: data})
					tdata := hexWords(rngB, words)
					dw, err := decodeWords(tdata)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := twin.Write(tg[vi], dw); err != nil {
						t.Fatal(err)
					}
				}
				b.dst = tg[spec.nsrc]
				b.srcs = tg[:spec.nsrc]
				all = append(all, b)
			}

			// Ops: the first opens a window; the rest are admitted while it
			// (and its successors) execute — pipelined windows of up to 4.
			opIDs := make([]int64, len(all))
			for i, b := range all {
				req := Request{Type: "op", Op: b.spec.op, Dst: b.names[b.spec.nsrc]}
				for _, n := range b.names[:b.spec.nsrc] {
					req.Srcs = append(req.Srcs, n)
				}
				opIDs[i] = d.send(out, req)
			}
			d.land()

			// Twin executes the same ops in arrival order.
			wantRes := make([]pinatubo.Result, len(all))
			for i, b := range all {
				res, err := twin.Apply(parseOpOrDie(t, b.spec.op), b.dst, b.srcs)
				if err != nil {
					t.Fatal(err)
				}
				wantRes[i] = res
			}

			for i, id := range opIDs {
				r, ok := out.byID(id)
				if !ok {
					t.Fatalf("op %d never answered", i)
				}
				if !r.OK {
					t.Fatalf("op %d failed: %s", i, r.Error)
				}
				if r.Window == 0 {
					t.Errorf("op %d missing window id", i)
				}
				if r.Class != wantRes[i].Class.String() {
					t.Errorf("op %d class %q, want %q", i, r.Class, wantRes[i].Class)
				}
				if (r.Count == nil) != (wantRes[i].Count == nil) {
					t.Errorf("op %d count presence mismatch", i)
				} else if r.Count != nil && *r.Count != *wantRes[i].Count {
					t.Errorf("op %d count %d, want %d", i, *r.Count, *wantRes[i].Count)
				}
			}

			// Contents: read every vector back over the wire; the twin reads
			// in the same order (Read draws a fault substream too, so order
			// matters under injection).
			for _, b := range all {
				tvecs := append(append([]*pinatubo.BitVector{}, b.srcs...), b.dst)
				for vi, name := range b.names {
					r := d.mustOK(out, Request{Type: "read", Name: name})
					tw, _, err := twin.Read(tvecs[vi])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(r.Words, encodeWords(tw)) {
						t.Errorf("vector %s: served contents diverge from sequential twin", name)
					}
				}
			}

			// Ledgers, bit for bit — the full bit-identity acceptance.
			if a, b := sys.Stats(), twin.Stats(); !reflect.DeepEqual(a, b) {
				t.Errorf("Stats diverge: served %+v, sequential %+v", a, b)
			}
			if a, b := sys.HardwareCounters(), twin.HardwareCounters(); !reflect.DeepEqual(a, b) {
				t.Errorf("HardwareCounters diverge: served %+v, sequential %+v", a, b)
			}
			if a, b := sys.FaultStats(), twin.FaultStats(); a != b {
				t.Errorf("FaultStats diverge: served %+v, sequential %+v", a, b)
			}

			m := srv.Metrics()
			if m.OpsDone != int64(len(all)) {
				t.Errorf("OpsDone=%d, want %d", m.OpsDone, len(all))
			}
			if m.Windows < 2 {
				t.Errorf("Windows=%d, want pipelined execution across >=2 windows", m.Windows)
			}
			if m.SimOpsPerSec <= 0 || m.Latency.P99 <= 0 || m.WindowLatency.P50 <= 0 {
				t.Errorf("metrics not populated: %+v", m)
			}
		})
	}
}

func parseOpOrDie(t *testing.T, name string) pinatubo.Op {
	t.Helper()
	op, err := parseOp(name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestServeFairness drives two tenants at 10:1 offered load through a
// fixed window cap and checks the admission controller keeps the light
// tenant within its fair share: windows serving both backlogs split
// slots within 2x of even, and the light tenant drains long before the
// heavy one. Fully scripted — deterministic by construction.
func TestServeFairness(t *testing.T) {
	sys, err := pinatubo.New(pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	const cap = 8
	d, srv := newDriver(t, Config{System: sys, WindowCap: cap, QueueLimit: 1 << 20})

	outs := map[string]*collector{"heavy": {}, "light": {}}
	const bits = 4096
	rng := rand.New(rand.NewSource(5))
	for _, tenant := range []string{"heavy", "light"} {
		for _, name := range []string{"src", "dst"} {
			d.mustOK(outs[tenant], Request{Tenant: tenant, Type: "alloc", Name: name, Bits: bits})
			d.mustOK(outs[tenant], Request{Tenant: tenant, Type: "write", Name: name,
				Words: hexWords(rng, (bits+63)/64)})
		}
	}

	// 10:1 offered load, interleaved: heavy sends 10 ops for every light
	// op. 80 heavy + 8 light.
	ids := map[string][]int64{}
	op := func(tenant string) {
		ids[tenant] = append(ids[tenant], d.send(outs[tenant],
			Request{Tenant: tenant, Type: "op", Op: "not", Dst: "dst", Srcs: []string{"src"}}))
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 10; j++ {
			op("heavy")
		}
		op("light")
	}
	d.land()

	// Every op answered OK.
	windowOf := func(tenant string, id int64) int64 {
		r, ok := outs[tenant].byID(id)
		if !ok || !r.OK {
			t.Fatalf("%s op %d: %+v", tenant, id, r)
		}
		return r.Window
	}
	slots := map[int64]map[string]int{}
	lastWindow := map[string]int64{}
	for tenant, tids := range ids {
		for _, id := range tids {
			w := windowOf(tenant, id)
			if slots[w] == nil {
				slots[w] = map[string]int{}
			}
			slots[w][tenant]++
			if w > lastWindow[tenant] {
				lastWindow[tenant] = w
			}
		}
	}

	// While both tenants were backlogged — every window up to the light
	// tenant's last — slots split within 2x of even.
	for w, byTenant := range slots {
		if w >= lastWindow["light"] || byTenant["light"] == 0 {
			continue
		}
		ratio := float64(byTenant["heavy"]) / float64(byTenant["light"])
		if ratio > 2 {
			t.Errorf("window %d: heavy/light slot ratio %.1f (%d:%d), want <= 2",
				w, ratio, byTenant["heavy"], byTenant["light"])
		}
	}
	// The light tenant's 8 ops fit in its fair share of the first few
	// windows; the heavy tenant's 80 keep going long after.
	if lastWindow["light"] >= lastWindow["heavy"] {
		t.Errorf("light tenant finished at window %d, heavy at %d — no fairness",
			lastWindow["light"], lastWindow["heavy"])
	}
	if lastWindow["light"] > 5 {
		t.Errorf("light tenant's 8 ops took until window %d, want <= 5", lastWindow["light"])
	}

	m := srv.Metrics()
	if m.Tenants["heavy"].Admitted != 80 || m.Tenants["light"].Admitted != 8 {
		t.Errorf("admission ledger %+v, want 80/8", m.Tenants)
	}
}

// TestServeShedding checks the backlog bound: once queued requests pass
// QueueLimit, new ops are answered Shed instead of queued, and every op
// is accounted exactly once (done or shed).
func TestServeShedding(t *testing.T) {
	sys, err := pinatubo.New(pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	d, srv := newDriver(t, Config{System: sys, WindowCap: 2, QueueLimit: 4})
	out := &collector{}
	const bits = 4096
	d.mustOK(out, Request{Type: "alloc", Name: "src", Bits: bits})
	d.mustOK(out, Request{Type: "alloc", Name: "dst", Bits: bits})
	d.mustOK(out, Request{Type: "write", Name: "src",
		Words: hexWords(rand.New(rand.NewSource(1)), (bits+63)/64)})

	const offered = 20
	ids := make([]int64, offered)
	for i := range ids {
		ids[i] = d.send(out, Request{Type: "op", Op: "copy", Dst: "dst", Srcs: []string{"src"}})
	}
	d.land()

	done, shed := 0, 0
	for i, id := range ids {
		r, ok := out.byID(id)
		if !ok {
			t.Fatalf("op %d unanswered", i)
		}
		switch {
		case r.OK:
			done++
		case r.Shed:
			shed++
		default:
			t.Fatalf("op %d neither done nor shed: %+v", i, r)
		}
	}
	if done+shed != offered {
		t.Fatalf("done %d + shed %d != offered %d", done, shed, offered)
	}
	if shed == 0 {
		t.Fatal("no ops shed past a 4-deep backlog at window cap 2")
	}
	m := srv.Metrics()
	if m.OpsShed != int64(shed) || m.OpsDone != int64(done) {
		t.Errorf("metrics %d/%d, responses %d/%d", m.OpsDone, m.OpsShed, done, shed)
	}
}

// TestServeForgetsIdleTenants checks that a tenant which ends idle with
// no vectors leaves the tenant map: 1000 one-off tenants — failed reads,
// alloc/free pairs queued behind a running window, ops naming unknown
// vectors — leave only the tenant still holding vectors, and none once
// it frees them. The metrics ledger keeps every tenant.
func TestServeForgetsIdleTenants(t *testing.T) {
	sys, err := pinatubo.New(pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	d, srv := newDriver(t, Config{System: sys, WindowCap: 2, QueueLimit: 1 << 20})
	out := &collector{}
	const bits = 4096
	for _, name := range []string{"src", "dst"} {
		d.mustOK(out, Request{Tenant: "keep", Type: "alloc", Name: name, Bits: bits})
	}
	// A running window sends later host requests through the queue and
	// the boundary's drain.
	d.send(out, Request{Tenant: "keep", Type: "op", Op: "copy", Dst: "dst", Srcs: []string{"src"}})
	if srv.run == nil {
		t.Fatal("op did not start a window")
	}

	const tenants = 1000
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		switch i % 3 {
		case 0:
			d.send(out, Request{Tenant: name, Type: "read", Name: "nope"})
		case 1:
			d.send(out, Request{Tenant: name, Type: "alloc", Name: "v", Bits: bits})
			d.send(out, Request{Tenant: name, Type: "free", Name: "v"})
		case 2:
			d.send(out, Request{Tenant: name, Type: "op", Op: "not", Dst: "x", Srcs: []string{"y"}})
		}
	}
	d.land()
	if len(out.resps) != int(d.nextID) {
		t.Fatalf("%d responses for %d requests", len(out.resps), d.nextID)
	}
	if _, ok := srv.tenants["keep"]; !ok || len(srv.tenants) != 1 {
		t.Fatalf("%d tenants left, want only keep", len(srv.tenants))
	}
	d.mustOK(out, Request{Tenant: "keep", Type: "free", Name: "src"})
	d.mustOK(out, Request{Tenant: "keep", Type: "free", Name: "dst"})
	if len(srv.tenants) != 0 {
		t.Errorf("%d tenants left after every vector was freed", len(srv.tenants))
	}
	if m := srv.Metrics(); m.Tenants["t1"].HostOps != 2 {
		t.Errorf("ledger for t1: %+v, want its 2 host ops", m.Tenants["t1"])
	}
}

// TestServeConcurrentClients is the end-to-end smoke under -race: a live
// Run loop, real connections (net.Pipe), concurrent clients in separate
// goroutines issuing allocs, writes, pipelined ops and reads — every
// response OK and every OR result verified against a host-side model.
func TestServeConcurrentClients(t *testing.T) {
	sys, err := pinatubo.New(pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{System: sys, WindowCap: 8, QueueLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	const clients = 8
	const bits = 2048
	words := (bits + 63) / 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cliConn, srvConn := net.Pipe()
			srv.HandleConn(srvConn)
			defer cliConn.Close()
			cli := newTestClient(cliConn)
			tenant := fmt.Sprintf("client-%d", c)
			rng := rand.New(rand.NewSource(int64(100 + c)))

			a := make([]uint64, words)
			b := make([]uint64, words)
			for i := range a {
				a[i], b[i] = rng.Uint64(), rng.Uint64()
			}
			for _, step := range []Request{
				{Tenant: tenant, Type: "alloc", Name: "a", Bits: bits},
				{Tenant: tenant, Type: "alloc", Name: "b", Bits: bits},
				{Tenant: tenant, Type: "alloc", Name: "out", Bits: bits},
				{Tenant: tenant, Type: "write", Name: "a", Words: encodeWords(a)},
				{Tenant: tenant, Type: "write", Name: "b", Words: encodeWords(b)},
			} {
				if _, err := cli.call(step); err != nil {
					errs <- fmt.Errorf("client %d %s: %w", c, step.Type, err)
					return
				}
			}
			for round := 0; round < 4; round++ {
				if _, err := cli.call(Request{Tenant: tenant, Type: "op", Op: "or",
					Dst: "out", Srcs: []string{"a", "b"}}); err != nil {
					errs <- fmt.Errorf("client %d or: %w", c, err)
					return
				}
				pc, err := cli.call(Request{Tenant: tenant, Type: "op", Op: "popcount", Dst: "out"})
				if err != nil {
					errs <- fmt.Errorf("client %d popcount: %w", c, err)
					return
				}
				wantPC := 0
				for i := range a {
					wantPC += bits_OnesCount64(a[i] | b[i])
				}
				if pc.Count == nil || *pc.Count != wantPC {
					errs <- fmt.Errorf("client %d round %d: popcount %v, want %d", c, round, pc.Count, wantPC)
					return
				}
			}
			rd, err := cli.call(Request{Tenant: tenant, Type: "read", Name: "out"})
			if err != nil {
				errs <- fmt.Errorf("client %d read: %w", c, err)
				return
			}
			got, err := decodeWords(rd.Words)
			if err != nil {
				errs <- err
				return
			}
			for i := range a {
				if got[i] != a[i]|b[i] {
					errs <- fmt.Errorf("client %d: word %d = %x, want %x", c, i, got[i], a[i]|b[i])
					return
				}
			}
			st, err := cli.call(Request{Tenant: tenant, Type: "stats"})
			if err != nil {
				errs <- fmt.Errorf("client %d stats: %w", c, err)
				return
			}
			if st.Stats == nil || st.Stats.OpsDone == 0 {
				errs <- fmt.Errorf("client %d: empty stats %+v", c, st.Stats)
				return
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Metrics()
	if m.OpsDone != clients*8 {
		t.Errorf("OpsDone=%d, want %d", m.OpsDone, clients*8)
	}
	cancel()
	select {
	case err := <-runDone:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
}

// bits_OnesCount64 keeps the math/bits dependency in one place.
func bits_OnesCount64(x uint64) int { return bits.OnesCount64(x) }

// testClient is a blocking RPC view of the line protocol: send one
// request, read responses until the matching ID arrives.
type testClient struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
	next int64
}

func newTestClient(conn net.Conn) *testClient {
	return &testClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
}

func (c *testClient) call(req Request) (Response, error) {
	c.next++
	req.ID = c.next
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	for {
		var resp Response
		if err := c.dec.Decode(&resp); err != nil {
			return Response{}, err
		}
		if resp.ID != req.ID {
			continue
		}
		if !resp.OK {
			return resp, fmt.Errorf("%s", resp.Error)
		}
		return resp, nil
	}
}

// TestServeAutoSizedWindow pins WindowCap 0 to the planner: New sizes the
// window once, to the deep-OR saturation point under the server's arbiter.
func TestServeAutoSizedWindow(t *testing.T) {
	for _, arb := range []pinatubo.Arbiter{pinatubo.ArbFIFO, pinatubo.ArbOldestReady} {
		sys, err := pinatubo.New(pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry()})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{System: sys, Arb: arb})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Plan(pinatubo.OpOr, 16, 0, pinatubo.WithArbiter(arb))
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.Metrics().WindowCap; got != rep.SaturationPoint {
			t.Errorf("arbiter %v: WindowCap %d, want saturation point %d", arb, got, rep.SaturationPoint)
		}
	}
}

// TestServeOverlongLine sends a request line past the 4 MiB scanner limit:
// the session answers it with exactly one error response, then closes.
func TestServeOverlongLine(t *testing.T) {
	sys, err := pinatubo.New(pinatubo.Config{Tech: pinatubo.PCM, Geometry: serveGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{System: sys, WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	srv.HandleConn(srvConn)
	go func() {
		// The server stops reading mid-line, so this write ends when the
		// server closes its end.
		line := make([]byte, 5<<20)
		for i := range line {
			line[i] = ' '
		}
		line[len(line)-1] = '\n'
		cliConn.Write(line)
	}()
	cliConn.SetReadDeadline(time.Now().Add(30 * time.Second))
	dec := json.NewDecoder(cliConn)
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no response to an over-long line: %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("response %+v, want an error", resp)
	}
	var extra Response
	if err := dec.Decode(&extra); err != io.EOF {
		t.Errorf("after the error response: %+v, %v; want EOF", extra, err)
	}
}
