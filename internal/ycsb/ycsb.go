// Package ycsb implements a Yahoo! Cloud Serving Benchmark style
// workload generator: YCSB key distributions (uniform, zipfian with
// scrambling, latest), the standard workload mixes A–F, and the
// paper's measurement workload — a 100% update workload over a fixed
// record population (§2.1: "a write workload that updates 500K
// records").
package ycsb

import (
	"math"
	"math/rand"
	"strconv"
)

// OpType is a YCSB operation kind.
type OpType int

const (
	// Read fetches one record.
	Read OpType = iota
	// Update overwrites one record.
	Update
	// Insert adds a new record.
	Insert
	// Scan reads a short range.
	Scan
	// ReadModifyWrite reads then updates one record.
	ReadModifyWrite
)

// String names the operation.
func (o OpType) String() string {
	switch o {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case Scan:
		return "scan"
	case ReadModifyWrite:
		return "rmw"
	}
	return "unknown"
}

// Op is one generated operation.
type Op struct {
	Type    OpType
	Key     string
	Value   []byte // for Update/Insert/RMW
	ScanLen int    // for Scan
}

// Distribution selects the key popularity distribution.
type Distribution int

const (
	// UniformDist draws keys uniformly.
	UniformDist Distribution = iota
	// ZipfianDist draws keys zipfian-skewed with scrambling (YCSB default).
	ZipfianDist
	// LatestDist skews toward recently inserted records.
	LatestDist
)

// Workload parameterizes a generator.
type Workload struct {
	Records      int // initial record population
	ReadProp     float64
	UpdateProp   float64
	InsertProp   float64
	ScanProp     float64
	RMWProp      float64
	Dist         Distribution
	ValueSize    int
	MaxScanLen   int
	ZipfConstant float64 // 0 => YCSB default 0.99
}

// Standard YCSB workload mixes plus the paper's write workload.
func WorkloadA() Workload {
	return Workload{Records: 1000, ReadProp: 0.5, UpdateProp: 0.5, Dist: ZipfianDist, ValueSize: 100}
}
func WorkloadB() Workload {
	return Workload{Records: 1000, ReadProp: 0.95, UpdateProp: 0.05, Dist: ZipfianDist, ValueSize: 100}
}
func WorkloadC() Workload {
	return Workload{Records: 1000, ReadProp: 1.0, Dist: ZipfianDist, ValueSize: 100}
}
func WorkloadD() Workload {
	return Workload{Records: 1000, ReadProp: 0.95, InsertProp: 0.05, Dist: LatestDist, ValueSize: 100}
}
func WorkloadE() Workload {
	return Workload{Records: 1000, ScanProp: 0.95, InsertProp: 0.05, Dist: ZipfianDist, ValueSize: 100, MaxScanLen: 20}
}
func WorkloadF() Workload {
	return Workload{Records: 1000, ReadProp: 0.5, RMWProp: 0.5, Dist: ZipfianDist, ValueSize: 100}
}

// PaperWrite is the paper's measurement workload: 100% updates over
// the record population, zipfian keys. Records defaults are scaled
// down from the paper's 500K for laptop runs; callers override.
func PaperWrite(records, valueSize int) Workload {
	return Workload{Records: records, UpdateProp: 1.0, Dist: ZipfianDist, ValueSize: valueSize}
}

// Key renders record number i as a YCSB-style key: "user" and i in at
// least 12 digits, zero-padded (fmt's "user%012d"), built with one
// allocation, the string itself.
func Key(i uint64) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], i, 10)
	var key [4 + len(digits)]byte
	k := append(key[:0], "user"...)
	for n := len(d); n < 12; n++ {
		k = append(k, '0')
	}
	return string(append(k, d...))
}

// Generator produces operations for one client. Not safe for
// concurrent use: give each client its own generator with a distinct
// seed.
type Generator struct {
	w       Workload
	rng     *rand.Rand
	zipf    *Zipfian
	records uint64 // grows with inserts
	base    uint64 // key-number offset (shard-local generators)
	value   []byte
}

// NewGenerator returns a deterministic generator for w.
func NewGenerator(w Workload, seed int64) *Generator {
	if w.Records <= 0 {
		w.Records = 1000
	}
	if w.ValueSize <= 0 {
		w.ValueSize = 100
	}
	if w.MaxScanLen <= 0 {
		w.MaxScanLen = 10
	}
	theta := w.ZipfConstant
	if theta == 0 {
		theta = 0.99
	}
	g := &Generator{
		w:       w,
		rng:     rand.New(rand.NewSource(seed)),
		records: uint64(w.Records),
		value:   make([]byte, w.ValueSize),
	}
	if w.Dist == ZipfianDist {
		g.zipf = NewZipfian(uint64(w.Records), theta, seed+1)
	}
	for i := range g.value {
		g.value[i] = byte('a' + i%26)
	}
	return g
}

// Records returns the current record population (initial + inserts).
func (g *Generator) Records() uint64 { return g.records }

// nextKeyNum draws a record number per the configured distribution.
func (g *Generator) nextKeyNum() uint64 {
	switch g.w.Dist {
	case ZipfianDist:
		return g.zipf.Next(g.rng) % g.records
	case LatestDist:
		// Skew toward the most recent records: records-1 - zipf-ish draw.
		d := uint64(float64(g.records) * math.Pow(g.rng.Float64(), 3))
		if d >= g.records {
			d = g.records - 1
		}
		return g.records - 1 - d
	default:
		return uint64(g.rng.Int63n(int64(g.records)))
	}
}

// key renders a drawn record number as a key, applying the generator's
// range offset.
func (g *Generator) key(n uint64) string { return Key(g.base + n) }

// Next generates one operation.
func (g *Generator) Next() Op {
	p := g.rng.Float64()
	w := g.w
	switch {
	case p < w.ReadProp:
		return Op{Type: Read, Key: g.key(g.nextKeyNum())}
	case p < w.ReadProp+w.UpdateProp:
		return Op{Type: Update, Key: g.key(g.nextKeyNum()), Value: g.value}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp:
		k := g.records
		g.records++
		return Op{Type: Insert, Key: g.key(k), Value: g.value}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp+w.ScanProp:
		return Op{Type: Scan, Key: g.key(g.nextKeyNum()), ScanLen: 1 + g.rng.Intn(w.MaxScanLen)}
	default:
		return Op{Type: ReadModifyWrite, Key: g.key(g.nextKeyNum()), Value: g.value}
	}
}

// Zipfian draws zipfian-distributed values in [0, n) using the
// Gray et al. algorithm as in YCSB, with FNV scrambling so popular
// items spread over the keyspace.
type Zipfian struct {
	items             uint64
	theta             float64
	alpha, zetan, eta float64
	zeta2theta        float64
}

// NewZipfian returns a zipfian generator over [0, items) with skew
// theta (YCSB default 0.99). seed is unused in the closed-form setup
// but kept for interface symmetry.
func NewZipfian(items uint64, theta float64, seed int64) *Zipfian {
	_ = seed
	if items == 0 {
		items = 1
	}
	z := &Zipfian{items: items, theta: theta}
	z.zeta2theta = zetaStatic(2, theta)
	z.zetan = zetaStatic(items, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// zetaStatic computes the zeta(n, theta) partial sum.
func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws a scrambled zipfian value using rng.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var raw uint64
	switch {
	case uz < 1.0:
		raw = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		raw = 1
	default:
		raw = uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if raw >= z.items {
			raw = z.items - 1
		}
	}
	return fnv64(raw) % z.items
}

// NextRaw draws the unscrambled rank (0 = most popular); useful for
// testing the skew.
func (z *Zipfian) NextRaw(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1.0:
		return 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		return 1
	default:
		raw := uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if raw >= z.items {
			raw = z.items - 1
		}
		return raw
	}
}

// fnv64 hashes v with FNV-1a.
func fnv64(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}
