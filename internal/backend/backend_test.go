package backend

import (
	"strings"
	"testing"

	"pinatubo/internal/memarch"
)

func TestSenseGroups(t *testing.T) {
	geo := memarch.Default() // 2^19-bit rows, 32:1 mux → 2^14-bit sense width
	sw := geo.SenseWidthBits()
	cases := []struct{ bits, want int }{
		{1, 1},
		{sw, 1},
		{sw + 1, 2},
		{geo.RowBits(), geo.ColumnGroups()},
	}
	for _, c := range cases {
		if got := SenseGroups(geo, c.bits); got != c.want {
			t.Errorf("SenseGroups(%d bits) = %d, want %d", c.bits, got, c.want)
		}
	}
}

// TestErrActivationFaultMessage pins the sentinel's historical "pim:"
// message — errors.Is chains and operator-facing diagnostics in the
// resilience ladder depend on the value staying stable across the move
// into this package.
func TestErrActivationFaultMessage(t *testing.T) {
	if !strings.HasPrefix(ErrActivationFault.Error(), "pim: ") {
		t.Errorf("ErrActivationFault message %q lost its pim: prefix", ErrActivationFault)
	}
}

func TestLWLStateMachine(t *testing.T) {
	l := NewLWL(8)
	if err := l.Latch(1); err == nil {
		t.Error("Latch before Reset accepted")
	}
	l.Reset()
	if err := l.Latch(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Latch(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Latch(2); err == nil {
		t.Error("double latch of one row accepted")
	}
	if got := l.OpenCount(); got != 2 {
		t.Errorf("OpenCount = %d, want 2", got)
	}
	if got := l.Open(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Open() = %v, want [1 2]", got)
	}
	if err := l.Latch(99); err == nil {
		t.Error("row outside the subarray accepted")
	}
	// Open reports rows in address order whatever the latch order.
	l.Reset()
	for _, r := range []int{5, 0, 3} {
		if err := l.Latch(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Open(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 5 {
		t.Errorf("Open() after out-of-order latches = %v, want [0 3 5]", got)
	}
	l.Reset()
	if got := l.OpenCount(); got != 0 {
		t.Errorf("OpenCount after Reset = %d, want 0", got)
	}
	if err := l.Latch(3); err != nil {
		t.Errorf("re-latch after Reset: %v", err)
	}
}
