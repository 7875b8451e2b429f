package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestGaugeSetAndValue(t *testing.T) {
	var g Gauge
	if v := g.Value(); v != 0 {
		t.Fatalf("zero gauge = %v, want 0", v)
	}
	g.Set(2.5)
	if v := g.Value(); v != 2.5 {
		t.Fatalf("after Set(2.5): %v", v)
	}
	g.Set(-1) // gauges go down; counters don't
	if v := g.Value(); v != -1 {
		t.Fatalf("after Set(-1): %v", v)
	}
}

func TestGaugeVecSeries(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("test_peer_state", "Peer state.", "peer")
	v.With("n1").Set(2)
	v.With("n2").Set(0)
	v.With("n1").Set(1) // same series, not a new one
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	series := v.Series()
	if series["n1"].Value() != 1 || series["n2"].Value() != 0 {
		t.Fatalf("n1 = %v, n2 = %v, want 1 and 0", series["n1"].Value(), series["n2"].Value())
	}
}

func TestGaugeVecExposition(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("tcqrd_cluster_peer_state", "Peer liveness (2=up, 0=down).", "peer")
	v.With("n1").Set(2)
	v.With("n2").Set(0)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE tcqrd_cluster_peer_state gauge",
		`tcqrd_cluster_peer_state{peer="n1"} 2`,
		`tcqrd_cluster_peer_state{peer="n2"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestGaugeVecConcurrent(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("test_concurrent_gauge", "x", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.With("a").Set(float64(j))
				v.With("b").Set(float64(i))
			}
		}(i)
	}
	wg.Wait()
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
}
