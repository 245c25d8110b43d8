package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"pinatubo"
	"pinatubo/perfbench/gen"
)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// simFigures runs a closed-loop workload for its fixed simulated prefix
// only and returns its simulated time and energy figures.
func simFigures(t *testing.T, wl workload, seed int64) [2]float64 {
	t.Helper()
	out, err := wl(env{seed: seed, setupReps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d failed ops", out.failed)
	}
	return [2]float64{out.layer["sim_ns_per_op"], out.layer["sim_pj_per_bit"]}
}

func TestSimFiguresRepeatExactlyForASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the closed-loop workloads")
	}
	for name, wl := range map[string]workload{"apply-deep": runApplyDeep, "batch-churn": runBatchChurn} {
		a, b := simFigures(t, wl, 5), simFigures(t, wl, 5)
		if a != b {
			t.Errorf("%s: seed 5 gave %v then %v", name, a, b)
		}
		if c := simFigures(t, wl, 6); c == a {
			t.Errorf("%s: seeds 5 and 6 gave the same figures %v", name, a)
		}
		if a[0] <= 0 || a[1] <= 0 {
			t.Errorf("%s: non-positive figures %v", name, a)
		}
	}
}

func TestOracleFlagsACorruptedMirrorBit(t *testing.T) {
	rng := gen.Rand(1, "test")
	var data [][]uint64
	for i := 0; i < 8; i++ {
		data = append(data, gen.Words(rng, churnBits/64))
	}
	st, err := setupChurn(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := []gen.Op{{Kind: gen.Xor, Dst: 0, Srcs: []int{1, 2}}, {Kind: gen.Popcount, Dst: 3}}
	run := func() pinatubo.BatchResult {
		res, err := st.sys.Batch(st.batchOps(ops))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if failed, err := st.checkWindow(ops, run(), nil, 0); err != nil || failed != 0 {
		t.Fatalf("clean mirror: %d failed, %v", failed, err)
	}
	st.mirror[1][5] ^= 1 << 9 // an XOR source: the destination must differ
	st.mirror[3][0] ^= 1      // the counted vector: the popcount must differ
	failed, err := st.checkWindow(ops, run(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Fatalf("corrupted mirror: %d failed ops, want 2", failed)
	}
}

func TestServeOracleSkipsShedAndFlagsWrongReads(t *testing.T) {
	mirror := [][][]uint64{{{0b0011}, {0b0101}}}
	recs := []*reqRec{
		{op: gen.Op{Kind: gen.Or, Dst: 0, Srcs: []int{0, 1}}, answered: true, shed: true},
		{op: gen.Op{Kind: gen.Read, Dst: 0}, answered: true, ok: true, words: []uint64{0b0011}},
		{op: gen.Op{Kind: gen.Xor, Dst: 0, Srcs: []int{0, 1}}, answered: true, ok: true},
		{op: gen.Op{Kind: gen.Read, Dst: 0}, answered: true, ok: true, words: []uint64{0b0110}},
	}
	if failed := checkTenants(mirror, recs); failed != 0 {
		t.Fatalf("consistent answers: %d failed", failed)
	}
	mirror = [][][]uint64{{{0b0011}, {0b0101}}}
	mirror[0][1][0] ^= 1 << 3
	if failed := checkTenants(mirror, recs); failed != 1 {
		t.Fatalf("corrupted mirror: %d failed, want 1", failed)
	}
}

// fakeDaemon answers every request line after a random delay drawn up
// to maxDelay, and records the lines it received per connection.
type fakeDaemon struct {
	ln       net.Listener
	maxDelay time.Duration
	mu       sync.Mutex
	lines    map[int][]string
	wg       sync.WaitGroup
}

func newFakeDaemon(t *testing.T, maxDelay time.Duration) *fakeDaemon {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeDaemon{ln: ln, maxDelay: maxDelay, lines: map[int][]string{}}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go f.serve(i, conn)
		}
	}()
	return f
}

func (f *fakeDaemon) serve(i int, conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
	rng := rand.New(rand.NewSource(int64(i)))
	var wmu sync.Mutex
	var replies sync.WaitGroup
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		var req struct{ ID int64 }
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			return
		}
		f.mu.Lock()
		f.lines[i] = append(f.lines[i], sc.Text())
		f.mu.Unlock()
		delay := time.Duration(rng.Int63n(int64(f.maxDelay) + 1))
		replies.Add(1)
		go func() {
			defer replies.Done()
			time.Sleep(delay)
			wmu.Lock()
			fmt.Fprintf(conn, "{\"id\":%d,\"ok\":true}\n", req.ID)
			wmu.Unlock()
		}()
	}
	replies.Wait()
}

func (f *fakeDaemon) close() {
	f.ln.Close()
	f.wg.Wait()
}

// offerAgainst runs one open-loop phase against a fake daemon and returns
// each request's schedule offset and the lines each connection received.
func offerAgainst(t *testing.T, maxDelay time.Duration) ([]time.Duration, map[int][]string) {
	t.Helper()
	f := newFakeDaemon(t, maxDelay)
	c, err := dial(f.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.offer(9, "test", 2000, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c.close()
	f.close()
	var offsets []time.Duration
	for _, r := range p.recs {
		if r.sent.Before(r.due) {
			t.Fatalf("request sent %v before it was due", r.due.Sub(r.sent))
		}
		offsets = append(offsets, r.due.Sub(p.recs[0].due))
	}
	return offsets, f.lines
}

func TestOpenLoopScheduleIgnoresResponseTiming(t *testing.T) {
	fastOff, fastLines := offerAgainst(t, 0)
	slowOff, slowLines := offerAgainst(t, 50*time.Millisecond)
	if len(fastOff) < 400 {
		t.Fatalf("only %d requests offered", len(fastOff))
	}
	if !reflect.DeepEqual(fastOff, slowOff) {
		t.Error("request due times depend on how fast responses come back")
	}
	if !reflect.DeepEqual(fastLines, slowLines) {
		t.Error("request contents or their order depend on how fast responses come back")
	}
}
