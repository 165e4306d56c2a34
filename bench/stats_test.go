package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 1000 samples 1..1000: p99 is the 990th, ten samples lie beyond it.
	big := make([]uint32, 1000)
	for i := range big {
		big[i] = uint32(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if vs[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestSliceMedians(t *testing.T) {
	// A 10.4 s window in 2.5 s slices: four full slices, the fifth (1 s
	// of a 2.5 s slice) must not count as a slow one.
	counts := []int64{2500, 5000, 2500, 250, 900}
	rates := sliceRates(counts, 2.5, 10.4)
	if len(rates) != 4 {
		t.Fatalf("got %d slices, want 4 full ones", len(rates))
	}
	if got := median(rates); got != 1000 {
		t.Errorf("median slice rate = %v, want 1000 (the stalled slice must not drag it)", got)
	}
	// Per-slice percentiles: one slice ten times slower than the rest
	// moves neither the median of medians nor the median of p99s.
	mk := func(scale uint32) latencies {
		var l latencies
		for i := 1; i <= minSliceP99Samples; i++ {
			l.add(int64(uint32(i) * scale))
		}
		return l
	}
	slices := []latencies{mk(1), mk(10), mk(1), mk(1), mk(1)}
	n, p50, p99 := slicePercentiles(slices, 2.5, 10.4)
	if n != 4*minSliceP99Samples || p50 != 250 || p99 != 495 {
		t.Errorf("slicePercentiles = n %d p50 %v p99 %v, want %d, 250, 495", n, p50, p99, 4*minSliceP99Samples)
	}
	// A window shorter than one slice is one slice.
	_, p50, _ = slicePercentiles([]latencies{mk(2)}, 2.5, 1.0)
	if p50 != 500 {
		t.Errorf("short window p50 = %v, want 500", p50)
	}
}

func TestLatencySummaryNeedsSamplesForP99(t *testing.T) {
	var l latencies
	for i := 0; i < minP99Samples-1; i++ {
		l.add(int64(i))
	}
	if n, _, p99 := l.summary(); n != minP99Samples-1 || p99 != 0 {
		t.Errorf("p99 reported from %d samples: %v", n, p99)
	}
	l.add(5)
	if _, _, p99 := l.summary(); p99 == 0 {
		t.Error("p99 missing at the sample threshold")
	}
}

func TestSelfTimes(t *testing.T) {
	// request [0,100] ⊃ cryptfs.write [10,50] ⊃ vfs.write [20,30], vfs.other [35,40]
	//                 ⊃ vfs.sync [60,80]
	// and a child sticking out of its parent is clipped to it.
	spans := []span{
		{name: spanEngineExecute, parent: -1, start: 0, end: 100},
		{name: spanCryptWrite, parent: 0, start: 10, end: 50},
		{name: spanVFSWrite, parent: 1, start: 20, end: 30},
		{name: spanVFSOther, parent: 1, start: 35, end: 40},
		{name: spanVFSSync, parent: 0, start: 60, end: 80},
		{name: spanVFSSync, parent: 0, start: 95, end: 120},
	}
	want := []int64{100 - 40 - 20 - 5, 40 - 10 - 5, 10, 5, 20, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spanNames[spans[i].name], got[i], want[i])
		}
	}
}

func TestRecorderAdoptsLayerSpans(t *testing.T) {
	r := newRecorder(8)
	r.on.Store(true)
	t0 := r.epoch
	outer := r.begin(spanCryptWrite, t0.Add(10))
	inner := r.begin(spanVFSWrite, t0.Add(20))
	r.end(inner, t0.Add(30))
	r.end(outer, t0.Add(40))
	end := t0.Add(100)
	r.request(spanClientExecute, 1, opUpdate, t0, end)
	if got := r.spans[inner].parent; got != outer {
		t.Errorf("inner span's parent = %d, want the CryptFS span %d", got, outer)
	}
	if got := r.spans[outer].parent; got != 2 {
		t.Errorf("outer span's parent = %d, want the request span 2", got)
	}
	if r.spans[inner].req != r.spans[2].req || r.spans[2].req != 1<<40|1 {
		t.Errorf("request ids: inner %d request %d", r.spans[inner].req, r.spans[2].req)
	}
	// The next request must not adopt spans of the previous one.
	r.request(spanClientExecute, 1, opUpdate, t0, end)
	if got := r.spans[outer].parent; got != 2 {
		t.Errorf("a later request stole the span: parent %d", got)
	}
}
