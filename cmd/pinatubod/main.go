// Command pinatubod is the batch-window service front-end: a persistent
// server that owns one simulated Pinatubo system and executes streams of
// bulk bitwise-op requests from many concurrent clients as pipelined
// batch windows — requests admitted while window N executes accumulate
// into window N+1, and the admission controller sizes windows from the
// live planner's saturation point.
//
// Clients speak line-delimited JSON (one request object per line; see
// internal/serve for the schema):
//
//	{"id":1,"tenant":"a","type":"alloc","name":"x","bits":4096}
//	{"id":2,"tenant":"a","type":"write","name":"x","words":["deadbeef"]}
//	{"id":3,"tenant":"a","type":"op","op":"or","dst":"x","srcs":["x"]}
//	{"id":4,"tenant":"a","type":"stats"}
//
// Usage:
//
//	pinatubod -listen :7117            # serve TCP clients
//	pinatubod -stdin                   # serve one session on stdin/stdout
//	pinatubod -demo 64                 # 64 in-process clients, print metrics
//	pinatubod -demo 64 -tech reram -faultrate 1e-4 -verify readback
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"pinatubo"
	"pinatubo/internal/serve"
)

func main() {
	listen := flag.String("listen", "", "serve TCP clients on this address (e.g. :7117)")
	stdin := flag.Bool("stdin", false, "serve one client session on stdin/stdout (pipe mode)")
	demo := flag.Int("demo", 0, "run an in-process demo with this many concurrent clients and print sustained metrics")
	tech := flag.String("tech", "pcm", "technology: pcm, stt, reram, dram")
	verify := flag.String("verify", "auto", "verification mode: auto, off, readback, ecc")
	faultRate := flag.Float64("faultrate", 0, "sense-flip probability per bit (0 = no faults)")
	actFail := flag.Float64("actfail", 0, "transient activation failure probability per extra open row")
	faultSeed := flag.Int64("faultseed", 1, "fault injection seed")
	window := flag.Int("window", 0, "ops per batch window (0 = size from the live planner's saturation point)")
	arbName := flag.String("arb", "fifo", "channel arbitration policy: fifo, oldest-ready")
	queue := flag.Int("queue", 0, "backlog bound before shedding (0 = 8 windows)")
	demoOps := flag.Int("ops", 16, "demo: OR+popcount rounds per client")
	demoBits := flag.Int("bits", 4096, "demo: bit-vector length per client")
	flag.Parse()

	if err := run(*listen, *stdin, *demo, *tech, *verify, *faultRate, *actFail,
		*faultSeed, *window, *arbName, *queue, *demoOps, *demoBits); err != nil {
		fmt.Fprintln(os.Stderr, "pinatubod:", err)
		os.Exit(1)
	}
}

func run(listen string, stdin bool, demo int, tech, verify string,
	faultRate, actFail float64, faultSeed int64, window int, arbName string,
	queue, demoOps, demoBits int) error {
	cfg := pinatubo.DefaultConfig()
	switch strings.ToLower(tech) {
	case "pcm":
		cfg.Tech = pinatubo.PCM
	case "stt", "stt-mram":
		cfg.Tech = pinatubo.STTMRAM
	case "reram":
		cfg.Tech = pinatubo.ReRAM
	case "dram":
		cfg.Tech = pinatubo.DRAM
	default:
		return fmt.Errorf("unknown technology %q", tech)
	}
	switch strings.ToLower(verify) {
	case "auto":
		cfg.Resilience.Verify = pinatubo.VerifyAuto
	case "off":
		cfg.Resilience.Verify = pinatubo.VerifyOff
	case "readback":
		cfg.Resilience.Verify = pinatubo.VerifyReadback
	case "ecc":
		cfg.Resilience.Verify = pinatubo.VerifyECC
	default:
		return fmt.Errorf("unknown verification mode %q", verify)
	}
	cfg.Fault = pinatubo.FaultConfig{
		Seed:               faultSeed,
		SenseFlipRate:      faultRate,
		ActivationFailRate: actFail,
	}
	var arb pinatubo.Arbiter
	switch strings.ToLower(arbName) {
	case "fifo":
		arb = pinatubo.ArbFIFO
	case "oldest-ready":
		arb = pinatubo.ArbOldestReady
	default:
		return fmt.Errorf("unknown arbiter %q", arbName)
	}

	sys, err := pinatubo.New(cfg)
	if err != nil {
		return err
	}
	if demo > 0 && queue == 0 {
		// The demo's offered load is bounded, so default to queueing it
		// all; pass -queue to watch the admission controller shed.
		queue = demo * (2*demoOps + 8)
	}
	srv, err := serve.New(serve.Config{
		System:     sys,
		Arb:        arb,
		WindowCap:  window,
		QueueLimit: queue,
	})
	if err != nil {
		return err
	}

	switch {
	case demo > 0:
		return runDemo(srv, demo, demoOps, demoBits)
	case stdin:
		return runStdin(srv)
	case listen != "":
		return runListen(srv, listen)
	default:
		return fmt.Errorf("pick a mode: -listen, -stdin or -demo (see -help)")
	}
}

// runListen serves TCP clients until the process is killed.
func runListen(srv *serve.Server, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pinatubod: listening on %s\n", ln.Addr())
	ctx := context.Background()
	//pinlint:ignore joinall Serve's accept loop joins on listener close (cross-package body the callgraph cannot see); the process exits with Run
	go srv.Serve(ctx, ln)
	return srv.Run(ctx)
}

// runStdin serves one line-delimited session on stdin/stdout and exits
// when the client closes its side and every response has been written.
func runStdin(srv *serve.Server) error {
	ctx, cancel := context.WithCancel(context.Background())
	conn := &stdioConn{onClose: cancel}
	srv.HandleConn(conn)
	if err := srv.Run(ctx); err != context.Canceled {
		return err
	}
	return nil
}

// stdioConn adapts stdin/stdout to net.Conn for HandleConn. Close (the
// writer goroutine's deferred call, after the reader saw EOF and the
// outbox drained) cancels the server's context.
type stdioConn struct {
	onClose func()
	once    sync.Once
}

func (c *stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (c *stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }
func (c *stdioConn) Close() error {
	c.once.Do(c.onClose)
	return nil
}
func (c *stdioConn) LocalAddr() net.Addr                { return stdioAddr{} }
func (c *stdioConn) RemoteAddr() net.Addr               { return stdioAddr{} }
func (c *stdioConn) SetDeadline(t time.Time) error      { return nil }
func (c *stdioConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *stdioConn) SetWriteDeadline(t time.Time) error { return nil }

type stdioAddr struct{}

func (stdioAddr) Network() string { return "stdio" }
func (stdioAddr) String() string  { return "stdio" }

// runDemo drives n in-process clients (each its own tenant, own
// connection, own goroutine) through alloc/write, demoOps OR+popcount
// rounds and a verified read-back, then prints the server's sustained
// metrics: the ≥64-concurrent-client smoke the service is sized for.
func runDemo(srv *serve.Server, n, demoOps, demoBits int) error {
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()
	//pinlint:ignore detrand wall-clock throughput is the demo's measurement, not a simulated result
	start := time.Now()

	words := (demoBits + 63) / 64
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := demoClient(srv, c, demoOps, demoBits, words); err != nil {
				errCh <- fmt.Errorf("client %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	//pinlint:ignore detrand wall-clock throughput is the demo's measurement, not a simulated result
	wall := time.Since(start)
	cancel()
	<-runDone
	for err := range errCh {
		return err
	}

	m := srv.Metrics()
	fmt.Printf("pinatubod demo: %d concurrent clients, %d ops each\n", n, 2*demoOps)
	fmt.Printf("  windows          %d (cap %d ops)\n", m.Windows, m.WindowCap)
	fmt.Printf("  ops done/shed    %d / %d   host ops %d\n", m.OpsDone, m.OpsShed, m.HostOps)
	fmt.Printf("  sustained        %.3g ops/s simulated   %.3g ops/s wall (%.2fs)\n",
		m.SimOpsPerSec, m.WallOpsPerSec, wall.Seconds())
	fmt.Printf("  op latency       p50 %v  p99 %v  max %v (in-window, simulated)\n",
		m.Latency.P50, m.Latency.P99, m.Latency.Max)
	fmt.Printf("  window makespan  p50 %v  p99 %v\n", m.WindowLatency.P50, m.WindowLatency.P99)
	fmt.Printf("  program cache    %d hits / %d misses   sandbox pool %d reused / %d gets\n",
		m.ProgramCacheHits, m.ProgramCacheMisses, m.SandboxPoolReuses, m.SandboxPoolGets)

	// Fairness spread: with identical offered load per tenant, admitted
	// counts should be flat.
	minA, maxA := int64(-1), int64(-1)
	for _, tm := range m.Tenants {
		if minA < 0 || tm.Admitted < minA {
			minA = tm.Admitted
		}
		if tm.Admitted > maxA {
			maxA = tm.Admitted
		}
	}
	fmt.Printf("  fairness         %d tenants, admitted min %d / max %d\n",
		len(m.Tenants), minA, maxA)
	out, _ := json.Marshal(m)
	fmt.Printf("  metrics json     %s\n", out)
	return nil
}

// demoClient is one tenant's scripted session over a net.Pipe connection.
func demoClient(srv *serve.Server, c, demoOps, demoBits, words int) error {
	cliConn, srvConn := net.Pipe()
	srv.HandleConn(srvConn)
	defer cliConn.Close()
	enc := json.NewEncoder(cliConn)
	dec := json.NewDecoder(cliConn)
	var nextID int64
	call := func(req serve.Request) (serve.Response, error) {
		nextID++
		req.ID = nextID
		req.Tenant = fmt.Sprintf("tenant-%03d", c)
		if err := enc.Encode(req); err != nil {
			return serve.Response{}, err
		}
		for {
			var resp serve.Response
			if err := dec.Decode(&resp); err != nil {
				return serve.Response{}, err
			}
			if resp.ID != req.ID {
				continue
			}
			if !resp.OK && !resp.Shed {
				return resp, fmt.Errorf("%s", resp.Error)
			}
			return resp, nil
		}
	}

	rng := rand.New(rand.NewSource(int64(1000 + c)))
	a := make([]uint64, words)
	b := make([]uint64, words)
	hexA := make([]string, words)
	hexB := make([]string, words)
	for i := range a {
		a[i], b[i] = rng.Uint64(), rng.Uint64()
		hexA[i] = fmt.Sprintf("%x", a[i])
		hexB[i] = fmt.Sprintf("%x", b[i])
	}
	steps := []serve.Request{
		{Type: "alloc", Name: "a", Bits: demoBits},
		{Type: "alloc", Name: "b", Bits: demoBits},
		{Type: "alloc", Name: "out", Bits: demoBits},
		{Type: "write", Name: "a", Words: hexA},
		{Type: "write", Name: "b", Words: hexB},
	}
	for _, st := range steps {
		if _, err := call(st); err != nil {
			return err
		}
	}
	orDone := 0
	for round := 0; round < demoOps; round++ {
		or, err := call(serve.Request{Type: "op", Op: "or", Dst: "out", Srcs: []string{"a", "b"}})
		if err != nil {
			return err
		}
		if or.OK {
			orDone++
		}
		if _, err := call(serve.Request{Type: "op", Op: "popcount", Dst: "out"}); err != nil {
			return err
		}
	}
	if orDone == 0 {
		// Every OR was shed (tiny -queue): nothing to verify.
		return nil
	}
	rd, err := call(serve.Request{Type: "read", Name: "out"})
	if err != nil {
		return err
	}
	for i, w := range rd.Words {
		var got uint64
		if _, err := fmt.Sscanf(w, "%x", &got); err != nil {
			return err
		}
		if got != a[i]|b[i] {
			return fmt.Errorf("word %d read back %x, want %x", i, got, a[i]|b[i])
		}
	}
	return nil
}
