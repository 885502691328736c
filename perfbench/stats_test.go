package main

import (
	"math"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {5, 50}, {20, 50}, {21, 52}, {40, 75}, {100, 90},
		{144, 93}, {999, 98}, {1000, 99}, {1_000_000, 99},
	} {
		if got := supportedPercentile(c.n, 99); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestSupportedPercentileRule checks the rule itself: the reported
// percentile has at least ten samples beyond it, and the next whole
// percentile (when it is still at most 99) has fewer.
func TestSupportedPercentileRule(t *testing.T) {
	beyond := func(n int, p float64) int { return n - int(math.Ceil(p*float64(n)/100)) }
	for n := 20; n <= 3000; n++ {
		p := supportedPercentile(n, 99)
		if b := beyond(n, p); b < minBeyond {
			t.Fatalf("n=%d: p%v has %d samples beyond it", n, p, b)
		}
		if p < 99 && beyond(n, p+1) >= minBeyond {
			t.Fatalf("n=%d: p%v reported, but p%v also has ten samples beyond it", n, p, p+1)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailOf(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	tl := tailOf(xs, 99)
	if tl.N != 1000 || tl.Median != 500.5 || tl.P != 99 || tl.Value != 990 {
		t.Fatalf("tailOf(1..1000) = %+v", tl)
	}
	if xs[0] != 1000 {
		t.Fatal("tailOf reordered its input")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}
