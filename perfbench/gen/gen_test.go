package gen

import (
	"reflect"
	"testing"
	"time"
)

func applyPrefix(seed int64, n int) []Op {
	s := NewApplyStream(seed)
	out := make([]Op, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func churnPrefix(seed int64, windows int) [][]Op {
	s := NewChurnStream(seed, 96, 12)
	var out [][]Op
	for i := 0; i < windows; i++ {
		w := s.Window()
		out = append(out, w, []Op{{Srcs: s.Victims(w, 3)}})
	}
	return out
}

func TestSameSeedSameStreams(t *testing.T) {
	if !reflect.DeepEqual(applyPrefix(7, 500), applyPrefix(7, 500)) {
		t.Error("apply-deep stream differs for one seed")
	}
	if !reflect.DeepEqual(churnPrefix(7, 50), churnPrefix(7, 50)) {
		t.Error("batch-churn stream differs for one seed")
	}
	a := Schedule(7, "ref", 300, 2*time.Second, 16, 8)
	b := Schedule(7, "ref", 300, 2*time.Second, 16, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve-open schedule differs for one seed")
	}
}

func TestDifferentSeedDifferentStreams(t *testing.T) {
	if reflect.DeepEqual(applyPrefix(7, 500), applyPrefix(8, 500)) {
		t.Error("apply-deep stream ignores the seed")
	}
	if reflect.DeepEqual(churnPrefix(7, 50), churnPrefix(8, 50)) {
		t.Error("batch-churn stream ignores the seed")
	}
	if reflect.DeepEqual(Schedule(7, "ref", 300, time.Second, 16, 8), Schedule(8, "ref", 300, time.Second, 16, 8)) {
		t.Error("serve-open schedule ignores the seed")
	}
}

func TestScheduleIsPoissonAtRate(t *testing.T) {
	const rate = 500.0
	reqs := Schedule(3, "ref", rate, 20*time.Second, 16, 8)
	if n := float64(len(reqs)); n < 0.95*rate*20 || n > 1.05*rate*20 {
		t.Fatalf("%v arrivals in 20 s at %v/s", n, rate)
	}
	reads := 0
	for i, r := range reqs {
		if i > 0 && r.Due < reqs[i-1].Due {
			t.Fatal("schedule not in due order")
		}
		if r.Kind == Read {
			reads++
		}
	}
	if frac := float64(reads) / float64(len(reqs)); frac < 0.03 || frac > 0.07 {
		t.Errorf("read share %.3f, want about 0.05", frac)
	}
}

func TestVictimsAvoidNextWindow(t *testing.T) {
	s := NewChurnStream(1, 96, 12)
	for i := 0; i < 100; i++ {
		next := s.Window()
		for _, v := range s.Victims(next, 3) {
			for _, op := range next {
				if op.Dst == v {
					t.Fatalf("victim %d is a destination of the next window", v)
				}
				for _, x := range op.Srcs {
					if x == v {
						t.Fatalf("victim %d is a source of the next window", v)
					}
				}
			}
		}
	}
}

func TestApplyMixIsDeep(t *testing.T) {
	ops := applyPrefix(11, 4000)
	deep, mid := 0, 0
	for _, op := range ops {
		switch len(op.Srcs) {
		case 128:
			deep++
		case 16:
			mid++
		}
	}
	if f := float64(deep) / 4000; f < 0.30 || f > 0.40 {
		t.Errorf("128-row share %.3f, want about 0.35", f)
	}
	if f := float64(mid) / 4000; f < 0.40 || f > 0.50 {
		t.Errorf("16-row share %.3f, want about 0.45", f)
	}
}
