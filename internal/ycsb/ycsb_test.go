package ycsb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Keys are byte-identical to fmt's "user%012d" on both sides of the
// padding width, so a seed reproduces the same requests.
func TestKeyFormat(t *testing.T) {
	if k := Key(42); k != "user000000000042" {
		t.Fatalf("key = %q", k)
	}
	for _, i := range []uint64{0, 1, 1e12 - 1, 1e12, 1e13, 1<<64 - 1} {
		if k, want := Key(i), fmt.Sprintf("user%012d", i); k != want {
			t.Errorf("Key(%d) = %q, want %q", i, k, want)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(WorkloadA(), 7)
	b := NewGenerator(WorkloadA(), 7)
	for i := 0; i < 100; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Type != ob.Type || oa.Key != ob.Key {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(WorkloadA(), 1)
	b := NewGenerator(WorkloadA(), 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next().Key == b.Next().Key {
			same++
		}
	}
	if same > 60 {
		t.Fatalf("different seeds produced %d/100 identical keys", same)
	}
}

func TestPaperWriteAllUpdates(t *testing.T) {
	g := NewGenerator(PaperWrite(5000, 128), 3)
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.Type != Update {
			t.Fatalf("op %d = %v, want update", i, op.Type)
		}
		if len(op.Value) != 128 {
			t.Fatalf("value size = %d", len(op.Value))
		}
		if !strings.HasPrefix(op.Key, "user") {
			t.Fatalf("key = %q", op.Key)
		}
	}
}

func TestMixProportions(t *testing.T) {
	g := NewGenerator(WorkloadB(), 11) // 95% read, 5% update
	counts := map[OpType]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[g.Next().Type]++
	}
	readFrac := float64(counts[Read]) / n
	if readFrac < 0.93 || readFrac > 0.97 {
		t.Fatalf("read fraction = %.3f, want ~0.95", readFrac)
	}
	if counts[Insert] != 0 || counts[Scan] != 0 {
		t.Fatalf("unexpected ops: %v", counts)
	}
}

func TestWorkloadCReadOnly(t *testing.T) {
	g := NewGenerator(WorkloadC(), 5)
	for i := 0; i < 500; i++ {
		if op := g.Next(); op.Type != Read {
			t.Fatalf("workload C produced %v", op.Type)
		}
	}
}

func TestInsertGrowsPopulation(t *testing.T) {
	w := Workload{Records: 100, InsertProp: 1.0, ValueSize: 10}
	g := NewGenerator(w, 9)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		op := g.Next()
		if op.Type != Insert {
			t.Fatalf("op = %v", op.Type)
		}
		if seen[op.Key] {
			t.Fatalf("insert reused key %q", op.Key)
		}
		seen[op.Key] = true
	}
	if g.Records() != 150 {
		t.Fatalf("records = %d, want 150", g.Records())
	}
}

func TestScanLenBounded(t *testing.T) {
	w := Workload{Records: 100, ScanProp: 1.0, MaxScanLen: 7}
	g := NewGenerator(w, 13)
	for i := 0; i < 200; i++ {
		op := g.Next()
		if op.Type != Scan {
			t.Fatalf("op = %v", op.Type)
		}
		if op.ScanLen < 1 || op.ScanLen > 7 {
			t.Fatalf("scan len = %d", op.ScanLen)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	// The most popular raw rank (0) must be drawn far more often than
	// a mid-population rank.
	z := NewZipfian(1000, 0.99, 0)
	rng := rand.New(rand.NewSource(17))
	counts := make([]int, 1000)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.NextRaw(rng)]++
	}
	if counts[0] < 10*counts[500]+1 {
		t.Fatalf("rank0=%d rank500=%d: not zipfian-skewed", counts[0], counts[500])
	}
	// Top rank should hold a few percent of all draws at theta=0.99.
	if counts[0] < n/100 {
		t.Fatalf("rank0 fraction = %.4f, want >= 1%%", float64(counts[0])/n)
	}
}

func TestZipfianScrambledInRange(t *testing.T) {
	f := func(seed int64, itemsRaw uint16) bool {
		items := uint64(itemsRaw%1000) + 1
		z := NewZipfian(items, 0.99, 0)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if z.Next(rng) >= items {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZipfianScrambleSpreads(t *testing.T) {
	// Scrambling should move the hottest item away from key 0 for most
	// population sizes, and hot keys should not all be adjacent.
	z := NewZipfian(1000, 0.99, 0)
	rng := rand.New(rand.NewSource(23))
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		counts[z.Next(rng)]++
	}
	distinct := len(counts)
	if distinct < 100 {
		t.Fatalf("only %d distinct keys drawn", distinct)
	}
}

func TestLatestDistFavorsRecent(t *testing.T) {
	w := Workload{Records: 1000, ReadProp: 1.0, Dist: LatestDist}
	g := NewGenerator(w, 29)
	recent, old := 0, 0
	for i := 0; i < 5000; i++ {
		op := g.Next()
		var num uint64
		if _, err := fmtSscan(op.Key, &num); err != nil {
			t.Fatalf("bad key %q", op.Key)
		}
		if num >= 900 {
			recent++
		}
		if num < 100 {
			old++
		}
	}
	if recent <= old*3 {
		t.Fatalf("latest dist: recent=%d old=%d", recent, old)
	}
}

// fmtSscan parses "user%012d".
func fmtSscan(key string, out *uint64) (int, error) {
	var v uint64
	for _, c := range key[4:] {
		v = v*10 + uint64(c-'0')
	}
	*out = v
	return 1, nil
}

func TestUniformCoversPopulation(t *testing.T) {
	w := Workload{Records: 50, ReadProp: 1.0, Dist: UniformDist}
	g := NewGenerator(w, 31)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		seen[g.Next().Key] = true
	}
	if len(seen) < 45 {
		t.Fatalf("uniform covered only %d/50 keys", len(seen))
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := NewGenerator(Workload{UpdateProp: 1}, 1)
	op := g.Next()
	if len(op.Value) != 100 {
		t.Fatalf("default value size = %d", len(op.Value))
	}
	if g.Records() != 1000 {
		t.Fatalf("default records = %d", g.Records())
	}
}

func TestOpTypeStrings(t *testing.T) {
	for _, tc := range []struct {
		op   OpType
		want string
	}{{Read, "read"}, {Update, "update"}, {Insert, "insert"}, {Scan, "scan"}, {ReadModifyWrite, "rmw"}} {
		if tc.op.String() != tc.want {
			t.Errorf("%v != %s", tc.op, tc.want)
		}
	}
}
