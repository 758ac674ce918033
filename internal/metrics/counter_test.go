package metrics

import (
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	c := NewCounter("retries")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
	if s := c.String(); s != "retries=5" {
		t.Errorf("string = %q", s)
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset failed")
	}
}

func TestGaugeHighWater(t *testing.T) {
	g := NewGauge("buffer-bytes")
	g.Set(10)
	g.Set(100)
	g.Set(50)
	if g.Value() != 50 {
		t.Errorf("value = %d, want 50", g.Value())
	}
	if g.Max() != 100 {
		t.Errorf("max = %d, want 100", g.Max())
	}
	g.Add(60)
	if g.Value() != 110 || g.Max() != 110 {
		t.Errorf("after add: value=%d max=%d, want 110/110", g.Value(), g.Max())
	}
	g.Add(-100)
	if g.Value() != 10 || g.Max() != 110 {
		t.Errorf("after sub: value=%d max=%d, want 10/110", g.Value(), g.Max())
	}
}

func TestGaugeConcurrent(t *testing.T) {
	g := NewGauge("depth")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("value = %d, want 0", g.Value())
	}
	if g.Max() < 1 {
		t.Fatalf("max = %d, want >= 1", g.Max())
	}
}
