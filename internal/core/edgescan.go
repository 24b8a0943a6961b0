package core

// Edge discovery for the state graph. BuildStateGraphCtx's pair scan is the
// innermost loop of the whole pipeline — it runs once per mitigation,
// thousands of times per figure corpus — so it gets an engine of its own:
//
//   - a per-distance weight table, so the scan performs two array loads
//     per candidate pair instead of an interface call into the model
//     (a Poisson PMF) plus a binomial coefficient;
//   - popcount bucketing: |wt(a)−wt(b)| ≤ Hamming(a,b), and the distance
//     parity is pinned to (wt(a)+wt(b)) mod 2, so only buckets whose
//     minimum achievable distance is within the model radius are scanned;
//   - a Hamming-ball walk for small radii: enumerate the C(n, 1..r)
//     strings around each vertex with incremental XOR and probe a
//     presence bitmap, making discovery O(V·C(n,≤r)) — near-linear in V
//     for the radii ε = 0.05 induces. Narrow registers resolve confirmed
//     hits through a direct value→vertex table; wide ones (up to
//     sphereMaxWidth) binary-search the sorted value slice instead, so
//     million-vertex corpora at n = 26 stay on the near-linear path;
//   - split-half runs for wide sparse registers (up to splitMaxWidth):
//     two strings within distance r agree to within ⌊r/2⌋ bits on their
//     high half or to within r−1−⌊r/2⌋ bits on their low half, so each
//     vertex compares only the vertices in the high-half and low-half
//     runs around its own. Where runs are short — 10⁵ strings over 26
//     qubits — that is a few hundred sequential candidates per vertex
//     instead of ~1500 random probes into an L2-spilling 2ⁿ-bit bitmap;
//   - a cost rule (scanEdges via choose) that estimates each strategy's
//     work from the data — bucket candidate pairs, ball probes, split
//     run occupancy — and runs the cheapest;
//   - two-level sharding across internal/par workers: level 1 partitions
//     the vertex set along data boundaries (top-bit groups for the
//     sphere walk, popcount-histogram work quantiles for the bucket
//     scan, one partition for the split scan), level 2 splits heavy
//     partitions into contiguous scan ranges. Workers drain tasks with
//     per-worker packed-hit scratch, and per-task edge lists merge in
//     ascending task order, so the edge array comes out in canonical
//     ascending (a, b) order — bit-for-bit identical to the serial
//     O(V²) scan for any strategy, any partitioning, and any worker
//     count.
//
// The seed's serial scan survives in the tests as bruteScanEdges: the
// randomized equivalence tests use it as the oracle, and
// BenchmarkBuildStateGraphBrute measures the engine against it.

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"qbeep/internal/bitstring"
	"qbeep/internal/par"
)

// scanStrategy selects the edge-discovery algorithm. scanAuto picks by
// estimated work; the equivalence tests force each path.
type scanStrategy int

const (
	scanAuto scanStrategy = iota
	// scanBucket scans vertex pairs from popcount buckets within radius.
	scanBucket
	// scanSphere walks the Hamming ball around each vertex and probes a
	// presence bitmap. Requires n <= sphereMaxWidth.
	scanSphere
	// scanSplit scans the vertex runs that share a register half within
	// the pigeonhole radius. Requires n <= splitMaxWidth.
	scanSplit
	// scanNone is reported when the graph cannot have edges (radius 0 or
	// fewer than two vertices).
	scanNone
	// scanWHT is reported when the Walsh–Hadamard operator made the scan
	// unnecessary (edges counted by transform, never materialized).
	scanWHT
)

func (s scanStrategy) String() string {
	switch s {
	case scanBucket:
		return "bucket"
	case scanSphere:
		return "sphere"
	case scanSplit:
		return "split"
	case scanNone:
		return "none"
	case scanWHT:
		return "wht"
	default:
		return "auto"
	}
}

// sphereLUTMaxWidth caps the direct-indexed value→vertex table of the
// ball-walk strategy at 2^20 entries (4 MiB).
const sphereLUTMaxWidth = 20

// sphereMaxWidth caps the ball-walk strategy itself. Past the LUT width
// the presence bitmap (2^n bits — 32 MiB at n = 28) still answers the
// overwhelmingly-common miss in one load; only confirmed hits pay a
// binary search over the sorted value slice for their vertex index.
const sphereMaxWidth = 28

// splitMaxWidth caps the split-half strategy: its two run-offset tables
// hold 2^⌈n/2⌉+1 and 2^⌊n/2⌋+1 int32 entries, 4 MiB each at n = 40.
const splitMaxWidth = 40

// splitPerUnit is the calibrated cost of one split-scan work unit — a
// candidate compared, a run header read, an offset-table entry filled —
// against one wide-register sphere probe or bucket candidate, the unit
// the other two strategies are costed in. A split candidate is a
// sequential load, an XOR and a popcount inside a run; a wide sphere
// probe is a random load into a 2ⁿ-bit bitmap that spills L2. DESIGN.md
// §7 has the measurements behind the value.
const splitPerUnit = 1.0

// scanSerialThreshold: scans expected to probe fewer candidates than this
// stay on one goroutine — fan-out overhead would dominate the work.
const scanSerialThreshold = 1 << 12

// weightTable precomputes the per-distance edge data once per build.
// perString[d] is the stored edge weight w(d)/C(n,d) for shells whose
// model mass passes ε, and 0 for shells inside the radius that fail the
// threshold (those candidates count as pruned). Index 0 is unused:
// vertices are distinct outcomes, so pair distances are >= 1.
type weightTable struct {
	perString []float64
}

func newWeightTable(w EdgeWeighter, eps float64, n, radius int) weightTable {
	t := weightTable{perString: make([]float64, radius+1)}
	for d := 1; d <= radius && d <= n; d++ {
		if shell := w.Weight(d); shell >= eps {
			t.perString[d] = shell / float64(bitstring.SphereSize(n, d))
		}
	}
	return t
}

// effectiveRadius returns the largest distance whose shell passes the ε
// threshold — the true scan bound. The model's MaxRadius is a tail
// cutoff, so its boundary shell always fails ε and scanning it can only
// prune; dropping dead boundary shells shrinks the Hamming ball (and the
// bucket window) substantially: one 16-qubit shell is C(16,4) = 1820 of
// a 2517-string ball.
func (t weightTable) effectiveRadius() int {
	for d := len(t.perString) - 1; d >= 1; d-- {
		if t.perString[d] != 0 {
			return d
		}
	}
	return 0
}

// edgeScanner is the shared read-only state of one edge-discovery run.
type edgeScanner struct {
	vals   []bitstring.BitString // node values in node-index (ascending) order
	n      int
	radius int
	tab    weightTable

	// Flat popcount buckets (counting-sort layout): bucket w's node
	// indices, ascending, are bucketIdx[bucketStart[w]:bucketStart[w+1]].
	// One histogram pass plus two fixed slices replaces the per-bucket
	// slice-of-slices, and the histogram doubles as the pre-sizing source
	// for the scan scratch below.
	bucketStart []int32 // len n+2
	bucketIdx   []int32 // len nV
	hitEst      float64 // expected edges per vertex (uniform-corpus estimate)
	// Work estimates in wide-probe units: bucket-scan candidate pairs and
	// sphere-walk probes.
	bucketCand, sphereProbes int64
	// Sphere strategy only. seen is a presence bitmap probed on every
	// ball position: at 2^n bits it stays L1-resident (8 KiB at n = 16)
	// where an index table does not, and the overwhelming majority of
	// ball probes miss — the bitmap answers those without touching
	// anything bigger.
	seen []uint64
	// lut resolves a confirmed hit to its node index + 1 on narrow
	// registers (n <= sphereLUTMaxWidth); nil past that width, where hits
	// binary-search vals instead.
	lut []int32
	// masks[t] holds the ball deltas whose top set bit is t, packed
	// delta<<8 | distance, precomputed once per scan. The per-vertex walk
	// visits only the groups whose top bit is clear in the vertex value:
	// those are exactly the deltas with v^delta > v, i.e. the neighbors
	// with a higher node index (values ascend with index), so half the
	// ball is skipped outright and the symmetric b > a filter costs
	// nothing per probe. Across visited groups the probed values ascend
	// (higher top bit ⇒ larger u), so only within-group hits need sorting.
	masks [][]uint64
	// Split strategy only. A value splits into its high half (the top
	// n−loBits bits) and its low half (the bottom loBits). Values ascend
	// with node index, so the vertices sharing high half h are the
	// contiguous index run [hiStart[h], hiStart[h+1]). The low-half runs
	// are loEnt[loStart[l]:loStart[l+1]], one packed hb<<32 | index entry
	// per vertex with low half l, ascending. hiBall and loBall are the
	// half-width XOR deltas of weight <= hiRad and <= radius−1−hiRad,
	// packed delta<<8 | weight, the zero delta first.
	loBits           uint
	hiRad            int
	hiBall, loBall   []uint64
	hiStart, loStart []int32
	loEnt            []uint64
	splitWork        int64 // estimated work units of the split scan (splitUnits)
}

// ballMasks enumerates every nonzero string with popcount <= radius over
// n bits, packed delta<<8 | popcount and grouped by top set bit. The
// groups together hold the ball minus its centre, so they share one
// exactly-sized arena — two allocations total instead of O(n·log group)
// append growth. Runs once per scan; the per-vertex hot loop just XORs
// these into the vertex value.
func ballMasks(n, radius int) [][]uint64 {
	arena := make([]uint64, 0, ballCount(n, radius)-1)
	masks := make([][]uint64, n)
	var rec func(delta uint64, top, start, depth int)
	rec = func(delta uint64, top, start, depth int) {
		for i := start; i < top; i++ {
			u := delta | 1<<uint(i)
			arena = append(arena, u<<8|uint64(depth))
			if depth < radius {
				rec(u, top, i+1, depth+1)
			}
		}
	}
	for t := 0; t < n; t++ {
		base := len(arena)
		arena = append(arena, (1<<uint(t))<<8|1)
		if radius > 1 {
			rec(1<<uint(t), t, 0, 2)
		}
		masks[t] = arena[base:len(arena):len(arena)]
	}
	return masks
}

// ballCount is the size of the radius-r Hamming ball over w bits,
// centre included: Σ_{k<=r} C(w, k).
func ballCount(w, r int) int64 {
	var size int64
	for k := 0; k <= r && k <= w; k++ {
		size += int64(bitstring.SphereSize(w, k))
	}
	return size
}

// halfBall enumerates the w-bit XOR deltas of popcount <= radius, packed
// delta<<8 | popcount: zero first, then each weight in ascending order
// (Gosper's next-combination step).
func halfBall(w, radius int) []uint64 {
	out := make([]uint64, 1, ballCount(w, radius))
	for k := 1; k <= radius && k <= w; k++ {
		for x := uint64(1)<<uint(k) - 1; x < 1<<uint(w); {
			out = append(out, x<<8|uint64(k))
			c := x & -x
			r := x + c
			x = (r^x)>>2/c | r
		}
	}
	return out
}

// splitTables sizes the split scan: the half balls and the two run-offset
// tables (counting-sort boundaries), plus the work estimate splitUnits
// reads from them. The low-half entries are filled by splitIndex.
//
// The split scan rests on a pigeonhole fact: if two strings are within
// distance r, their high halves differ in at most hiRad = ⌊r/2⌋ bits or
// their low halves differ in at most r−1−hiRad bits (dh + dl <= r and
// dh > hiRad leave dl <= r−1−hiRad). So every edge (a, b) is found
// either among the high-half runs at XOR deltas of weight <= hiRad, or
// among the low-half runs at deltas of weight <= r−1−hiRad with the
// high halves more than hiRad apart — never both.
func (sc *edgeScanner) splitTables() {
	lb := uint(sc.n / 2)
	sc.loBits = lb
	sc.hiRad = sc.radius / 2
	sc.hiBall = halfBall(sc.n-int(lb), sc.hiRad)
	sc.loBall = halfBall(int(lb), sc.radius-1-sc.hiRad)
	hi := make([]int32, 1<<(uint(sc.n)-lb)+1)
	lo := make([]int32, 1<<lb+1)
	loMask := bitstring.BitString(1)<<lb - 1
	for _, v := range sc.vals {
		hi[v>>lb+1]++
		lo[v&loMask+1]++
	}
	for h := 1; h < len(hi); h++ {
		hi[h] += hi[h-1]
	}
	for l := 1; l < len(lo); l++ {
		lo[l] += lo[l-1]
	}
	sc.hiStart, sc.loStart = hi, lo
	sc.splitWork = sc.splitUnits()
}

// splitHeaderUnits is the split scan's data-independent work: one run
// header per (vertex, half-ball delta) and one per offset-table entry.
func (sc *edgeScanner) splitHeaderUnits(hiBall, loBall int64) int64 {
	lb := sc.n / 2
	return int64(len(sc.vals))*(hiBall+loBall) + 1<<uint(sc.n-lb) + 1<<uint(lb) + 2
}

// splitUnits estimates the split scan's work from the run-offset tables:
// the header units plus every candidate pair it compares. Within a run a
// vertex compares the members past it; across the runs x < x^delta of a
// delta the scan compares (about) each cross pair once.
func (sc *edgeScanner) splitUnits() int64 {
	var cand int64
	runs := func(start []int32, ball []uint64) {
		for x := 0; x+1 < len(start); x++ {
			c := int64(start[x+1] - start[x])
			if c == 0 {
				continue
			}
			cand += c * (c - 1) / 2
			for _, m := range ball[1:] {
				if u := x ^ int(m>>8); u > x {
					cand += c * int64(start[u+1]-start[u])
				}
			}
		}
	}
	runs(sc.hiStart, sc.hiBall)
	runs(sc.loStart, sc.loBall)
	return cand + sc.splitHeaderUnits(int64(len(sc.hiBall)), int64(len(sc.loBall)))
}

// splitCheaper reports whether the split scan's estimated cost undercuts
// best, the cheapest other strategy's, in wide-probe units. The header
// units alone settle a loss before any table is allocated.
func (sc *edgeScanner) splitCheaper(best int64) bool {
	lb, hiRad := sc.n/2, sc.radius/2
	if splitPerUnit*float64(sc.splitHeaderUnits(ballCount(sc.n-lb, hiRad), ballCount(lb, sc.radius-1-hiRad))) >= float64(best) {
		return false
	}
	sc.splitTables()
	return splitPerUnit*float64(sc.splitWork) < float64(best)
}

// splitIndex fills the low-half runs by counting sort over the ascending
// values, so each run's entries ascend by node index (and high half).
// Each entry packs the vertex's high half above its index. The fill
// advances loStart[l] to the end of run l; shifting the table up one slot
// restores the run starts.
func (sc *edgeScanner) splitIndex() {
	lb := sc.loBits
	loMask := bitstring.BitString(1)<<lb - 1
	lo := sc.loStart
	sc.loEnt = make([]uint64, len(sc.vals))
	for i, v := range sc.vals {
		l := v & loMask
		sc.loEnt[lo[l]] = uint64(v>>lb)<<32 | uint64(i)
		lo[l]++
	}
	copy(lo[1:], lo[:len(lo)-1])
	lo[0] = 0
}

// scanTask is one unit of parallel edge discovery: a contiguous vertex
// range inside one level-1 partition. Tasks are planned in ascending
// vertex order, so merging per-task results in task order reproduces the
// canonical serial edge order.
type scanTask struct {
	lo, hi int
}

// scanScratch is one worker's reusable discovery state: the packed-hit
// buffer and (bucket strategy) the per-bucket forward cursors. Scratches
// cycle through a buffered-channel pool, so a worker draining many tasks
// allocates only the exact-size per-task hit copies after warm-up.
//
//qbeep:pooled
type scanScratch struct {
	hits []uint64
	cur  []int32
}

// scanResult is one task's share of the discovery output. Hits stay
// packed (8 bytes each) until every task is done and the final edge
// slice can be allocated at its exact size — appending edge structs
// directly would triple the growth-copy traffic.
type scanResult struct {
	hits   []uint64 // packed b<<8 | d, one ascending run per vertex
	starts []int32  // vertex (relative to task lo) -> offset into hits
	pruned int
}

// planScanTasks builds the two-level decomposition of [0, nV). Level 1
// partitions the vertex set along data boundaries: the sphere walk cuts
// at top-bit-group edges (values ascend with node index, so each group
// is contiguous), the bucket scan at popcount-histogram work quantiles;
// the split scan keeps one partition.
// Level 2 splits partitions whose estimated share of the scan exceeds an
// even grain into contiguous sub-ranges, so the par queue can balance
// skewed partitions. Every task stays in ascending vertex order, which
// keeps the ordered merge canonical for any worker count.
func (sc *edgeScanner) planScanTasks(strat scanStrategy, workers int) []scanTask {
	nV := len(sc.vals)
	if workers <= 1 || nV < 2 {
		return []scanTask{{0, nV}}
	}
	// Over-decompose so the dynamic queue balances the triangular
	// workload (vertex a scans only neighbors b > a).
	target := workers * 8
	if target > 64 {
		target = 64
	}
	if target > nV {
		target = nV
	}

	var parts []scanTask
	var workPrefix []float64
	switch strat {
	case scanSphere:
		lo := 0
		for i := 1; i <= nV; i++ {
			if i == nV || bits.Len64(uint64(sc.vals[i])) != bits.Len64(uint64(sc.vals[lo])) {
				parts = append(parts, scanTask{lo, i})
				lo = i
			}
		}
	case scanSplit:
		// A split-scan vertex's work is the occupancy of the runs around
		// its halves, which does not trend with its index: one partition,
		// cut evenly below.
		parts = []scanTask{{0, nV}}
	default:
		// A bucket-scan vertex's candidate count is its popcount window's
		// total occupancy, so the prefix sum of per-vertex window sizes
		// cuts equal-work partitions no matter how skewed the weight
		// histogram is.
		win := make([]float64, sc.n+1)
		for w := 0; w <= sc.n; w++ {
			lo := w - sc.radius
			if lo < 0 {
				lo = 0
			}
			hi := w + sc.radius
			if hi > sc.n {
				hi = sc.n
			}
			win[w] = float64(sc.bucketStart[hi+1] - sc.bucketStart[lo])
		}
		workPrefix = make([]float64, nV+1)
		for i, v := range sc.vals {
			workPrefix[i+1] = workPrefix[i] + win[v.Weight()]
		}
		nParts := workers
		if nParts > 8 {
			nParts = 8
		}
		if nParts > nV {
			nParts = nV
		}
		parts = cutByWork(workPrefix, 0, nV, nParts)
	}

	totalWork := float64(nV)
	if workPrefix != nil {
		totalWork = workPrefix[nV]
	}
	grain := totalWork / float64(target)
	tasks := make([]scanTask, 0, target+len(parts))
	for _, p := range parts {
		pw := float64(p.hi - p.lo)
		if workPrefix != nil {
			pw = workPrefix[p.hi] - workPrefix[p.lo]
		}
		k := 1
		if grain > 0 {
			k = int(pw/grain + 0.5)
		}
		if k < 1 {
			k = 1
		}
		if k > p.hi-p.lo {
			k = p.hi - p.lo
		}
		switch {
		case k == 1:
			tasks = append(tasks, p)
		case workPrefix != nil:
			tasks = append(tasks, cutByWork(workPrefix, p.lo, p.hi, k)...)
		default:
			for i := 0; i < k; i++ {
				tasks = append(tasks, scanTask{p.lo + i*(p.hi-p.lo)/k, p.lo + (i+1)*(p.hi-p.lo)/k})
			}
		}
	}
	return tasks
}

// cutByWork splits [lo, hi) into at most k contiguous ranges of
// near-equal work under the prefix-sum weighting: boundaries are the
// work quantiles, found by binary search; ranges that would come out
// empty are skipped.
func cutByWork(prefix []float64, lo, hi, k int) []scanTask {
	out := make([]scanTask, 0, k)
	base, span := prefix[lo], prefix[hi]-prefix[lo]
	cur := lo
	for i := 1; i <= k && cur < hi; i++ {
		cut := hi
		if i < k {
			q := base + span*float64(i)/float64(k)
			l, h := cur, hi
			for l < h {
				mid := int(uint(l+h) >> 1)
				if prefix[mid] < q {
					l = mid + 1
				} else {
					h = mid
				}
			}
			cut = l
		}
		if cut <= cur {
			continue
		}
		out = append(out, scanTask{cur, cut})
		cur = cut
	}
	if cur < hi {
		out = append(out, scanTask{cur, hi})
	}
	return out
}

// newEdgeScanner sizes one discovery run: the popcount histogram,
// prefix-summed into the flat bucket boundaries, and the work estimates
// of the bucket scan and the sphere walk that the strategy choice reads.
// The bucket index itself is filled only if that strategy runs.
func newEdgeScanner(vals []bitstring.BitString, n, radius int, tab weightTable) *edgeScanner {
	sc := &edgeScanner{vals: vals, n: n, radius: radius, tab: tab}
	hist := make([]int32, n+2)
	for _, v := range vals {
		hist[v.Weight()+1]++
	}
	for w := 0; w <= n; w++ {
		hist[w+1] += hist[w]
	}
	sc.bucketStart = hist
	size := func(w int) int64 { return int64(hist[w+1] - hist[w]) }
	for wa := 0; wa <= n; wa++ {
		la := size(wa)
		if la == 0 {
			continue
		}
		for wb := wa; wb <= n && wb-wa <= radius; wb++ {
			if wb == wa {
				if radius >= 2 { // same-weight pairs differ in >= 2 bits
					sc.bucketCand += la * (la - 1) / 2
				}
				continue
			}
			sc.bucketCand += la * size(wb)
		}
	}
	ballSize := ballCount(n, radius) - 1
	// The walk probes half the ball per vertex (top-bit grouping).
	sc.sphereProbes = int64(len(vals)) * ballSize / 2
	// Expected hits per vertex under a uniform corpus — presizes the hit
	// buffers so discovery appends rarely reallocate. Clustered corpora
	// exceed it and fall back to append growth.
	sc.hitEst = 0.5 * float64(ballSize) * math.Ldexp(float64(len(vals)), -n)
	return sc
}

// choose resolves scanAuto to the strategy of least estimated work, and
// a forced strategy past its width cap to the bucket scan.
func (sc *edgeScanner) choose(strat scanStrategy) scanStrategy {
	n := sc.n
	switch {
	case strat == scanAuto:
		if n <= sphereLUTMaxWidth {
			// A probe — XOR plus one L1-resident bitmap load — costs
			// about half a bucket candidate (random value fetch plus
			// popcount).
			if sc.sphereProbes < 2*sc.bucketCand {
				return scanSphere
			}
			return scanBucket
		}
		// Wide registers: the bitmap spills L1, so a probe costs about
		// one bucket candidate, and the split scan competes with both.
		pick, best := scanBucket, sc.bucketCand
		if n <= sphereMaxWidth && sc.sphereProbes < best {
			pick, best = scanSphere, sc.sphereProbes
		}
		if n <= splitMaxWidth && sc.splitCheaper(best) {
			pick = scanSplit
		}
		return pick
	case strat == scanSphere && n > sphereMaxWidth, strat == scanSplit && n > splitMaxWidth:
		return scanBucket
	}
	return strat
}

// prepare builds the index strat scans and returns its work estimate,
// which sets the serial-vs-parallel decision.
func (sc *edgeScanner) prepare(strat scanStrategy) int64 {
	vals, n := sc.vals, sc.n
	switch strat {
	case scanSphere:
		sc.seen = make([]uint64, (1<<uint(n)+63)/64)
		if n <= sphereLUTMaxWidth {
			sc.lut = make([]int32, 1<<uint(n))
			for i, v := range vals {
				sc.lut[v] = int32(i) + 1
				sc.seen[v>>6] |= 1 << (v & 63)
			}
		} else {
			for _, v := range vals {
				sc.seen[v>>6] |= 1 << (v & 63)
			}
		}
		sc.masks = ballMasks(n, sc.radius)
		return sc.sphereProbes
	case scanSplit:
		if sc.hiStart == nil {
			sc.splitTables()
		}
		sc.splitIndex()
		return sc.splitWork
	}
	// Flat buckets by counting sort: scanning vals in index order keeps
	// each bucket's node indices ascending.
	sc.bucketIdx = make([]int32, len(vals))
	fill := make([]int32, n+1)
	copy(fill, sc.bucketStart[:n+1])
	for i, v := range vals {
		w := v.Weight()
		sc.bucketIdx[fill[w]] = int32(i)
		fill[w]++
	}
	return sc.bucketCand
}

// scanEdges discovers every thresholded edge. The returned slice is in
// canonical ascending (a, b) order regardless of strategy, partitioning,
// or worker count; pruned counts candidate pairs within the radius
// dropped by ε, matching the serial scan's accounting exactly. deg holds
// vertex i's degree at index i+1 — tallied while the edges materialize,
// so buildCSRCounted needs no counting pass over the edges.
func scanEdges(ctx context.Context, vals []bitstring.BitString, n, radius int, tab weightTable, workers int, strat scanStrategy) (edges []edge, deg []int32, pruned int, used scanStrategy) {
	nV := len(vals)
	if radius <= 0 || nV < 2 {
		return nil, make([]int32, nV+1), 0, scanNone
	}
	sc := newEdgeScanner(vals, n, radius, tab)
	strat = sc.choose(strat)
	cand := sc.prepare(strat)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cand < scanSerialThreshold {
		workers = 1
	}
	tasks := sc.planScanTasks(strat, workers)

	results := make([]scanResult, len(tasks))
	// One shared arena holds every task's starts window (task length
	// plus the leading zero each), cut along precomputed offsets.
	startsArena := make([]int32, nV+len(tasks))
	offs := make([]int, len(tasks))
	maxVerts, off := 0, 0
	for i, t := range tasks {
		offs[i] = off
		off += t.hi - t.lo + 1
		if t.hi-t.lo > maxVerts {
			maxVerts = t.hi - t.lo
		}
	}
	hitCap := int(sc.hitEst*float64(maxVerts)*1.2) + 64

	if len(tasks) == 1 {
		// Serial fast path: scan straight into the result, no copy.
		s := &scanScratch{hits: make([]uint64, 0, hitCap)}
		starts := startsArena[:nV+1]
		pr := sc.scanRange(tasks[0], strat, s, starts)
		results[0] = scanResult{hits: s.hits, starts: starts, pruned: pr} //qbeep:allow-poolretain serial path: the scratch is function-local, never pooled, and dies with this frame
	} else {
		pool := make(chan *scanScratch, workers)
		for i := 0; i < workers; i++ {
			pool <- &scanScratch{hits: make([]uint64, 0, hitCap)}
		}
		_, _ = par.ForEach(ctx, len(tasks), workers, func(_ context.Context, ti int) error {
			t := tasks[ti]
			s := <-pool
			s.hits = s.hits[:0]
			starts := startsArena[offs[ti] : offs[ti]+t.hi-t.lo+1]
			pr := sc.scanRange(t, strat, s, starts)
			hits := make([]uint64, len(s.hits))
			copy(hits, s.hits)
			results[ti] = scanResult{hits: hits, starts: starts, pruned: pr}
			pool <- s
			return nil
		})
	}

	var total int
	for i := range results {
		total += len(results[i].hits)
		pruned += results[i].pruned
	}
	tabPS := tab.perString
	edges = make([]edge, 0, total)
	deg = make([]int32, nV+1)
	for ti := range results {
		r := &results[ti]
		lo := tasks[ti].lo
		for k := 0; k+1 < len(r.starts); k++ {
			a := lo + k
			run := r.hits[r.starts[k]:r.starts[k+1]]
			deg[a+1] += int32(len(run))
			for _, p := range run {
				b := int(p >> 8)
				deg[b+1]++
				edges = append(edges, edge{a: a, b: b, weight: tabPS[p&0xff]})
			}
		}
	}
	return edges, deg, pruned, strat
}

// scanRange emits the edges (a, b) with a in the task's range and b > a,
// each vertex's neighbors sorted ascending, into the scratch hit buffer
// (s.hits, reset by the caller). starts must span hi-lo+1 entries; on
// return starts[k] is the hit offset of vertex lo+k. Returns the pruned
// count.
func (sc *edgeScanner) scanRange(t scanTask, strat scanStrategy, s *scanScratch, starts []int32) int {
	lo, hi := t.lo, t.hi
	pruned := 0
	hits := s.hits
	starts[0] = 0
	// Hoist the scanner fields: the appends below keep the compiler from
	// proving the fields loop-invariant, and these are the two hottest
	// loops in the pipeline.
	vals, tab, radius := sc.vals, sc.tab.perString, sc.radius
	if strat == scanSplit {
		return sc.splitRange(t, s, starts)
	}
	if strat == scanSphere {
		seen, lut, masks := sc.seen, sc.lut, sc.masks
		// idxOf resolves a confirmed hit to its node index: direct table
		// on narrow registers, binary search over the ascending value
		// slice past the LUT width. Only hits pay it — the bitmap has
		// already answered every miss.
		idxOf := func(u bitstring.BitString) uint64 {
			if lut != nil {
				return uint64(lut[u] - 1)
			}
			l, h := 0, len(vals)
			for l < h {
				mid := int(uint(l+h) >> 1)
				if vals[mid] < u {
					l = mid + 1
				} else {
					h = mid
				}
			}
			return uint64(l)
		}
		// len(seen) is always a power of two (2^max(0,n-6)), so masking
		// the word index proves it in-bounds and drops the bounds check
		// from the innermost load.
		wmask := bitstring.BitString(len(seen) - 1)
		for a := lo; a < hi; a++ {
			va := vals[a]
			for t, group := range masks {
				if va&(1<<uint(t)) != 0 {
					continue // v^delta < v: the lower-index side owns the pair
				}
				seg := len(hits)
				// Unrolled by two: the bitmap loads of a pair are
				// independent, so they overlap instead of serializing on
				// L1 latency. Hits are rare; both taken branches stay in
				// probe order, preserving the canonical emission order.
				i := 0
				for ; i+2 <= len(group); i += 2 {
					m0, m1 := group[i], group[i+1]
					u0 := va ^ bitstring.BitString(m0>>8)
					u1 := va ^ bitstring.BitString(m1>>8)
					h0 := seen[(u0>>6)&wmask] & (1 << (u0 & 63))
					h1 := seen[(u1>>6)&wmask] & (1 << (u1 & 63))
					if h0 != 0 {
						// Observed, and u > va guarantees index idxOf(u) > a.
						if d := m0 & 0xff; tab[d] != 0 {
							hits = append(hits, idxOf(u0)<<8|d)
						} else {
							pruned++
						}
					}
					if h1 != 0 {
						if d := m1 & 0xff; tab[d] != 0 {
							hits = append(hits, idxOf(u1)<<8|d)
						} else {
							pruned++
						}
					}
				}
				if i < len(group) {
					m := group[i]
					u := va ^ bitstring.BitString(m>>8)
					if seen[(u>>6)&wmask]&(1<<(u&63)) != 0 {
						if d := m & 0xff; tab[d] != 0 {
							hits = append(hits, idxOf(u)<<8|d)
						} else {
							pruned++
						}
					}
				}
				sortPacked(hits[seg:])
			}
			starts[a-lo+1] = int32(len(hits))
		}
		s.hits = hits
		return pruned
	}
	// Per-bucket cursors to the first node index > a, seeded from the
	// bucket boundaries and reset per task. Vertices are processed in
	// ascending index order, so each cursor only moves forward —
	// amortized O(bucket) per task instead of a binary search per
	// (vertex, bucket) visit.
	if cap(s.cur) < sc.n+1 {
		s.cur = make([]int32, sc.n+1)
	}
	s.cur = s.cur[:sc.n+1]
	copy(s.cur, sc.bucketStart[:sc.n+1])
	cur := s.cur
	bucketIdx, bucketStart := sc.bucketIdx, sc.bucketStart
	for a := lo; a < hi; a++ {
		va := vals[a]
		wa := va.Weight()
		loW := wa - radius
		if loW < 0 {
			loW = 0
		}
		hiW := wa + radius
		if hiW > sc.n {
			hiW = sc.n
		}
		seg := len(hits)
		for wb := loW; wb <= hiW; wb++ {
			if wb == wa && radius < 2 {
				continue // same-weight distances are even and >= 2
			}
			end := int(bucketStart[wb+1])
			c := int(cur[wb])
			for c < end && int(bucketIdx[c]) <= a {
				c++
			}
			cur[wb] = int32(c)
			for _, j := range bucketIdx[c:end] {
				d := bitstring.Hamming(va, vals[j])
				if d > radius {
					continue
				}
				if tab[d] == 0 {
					pruned++
					continue
				}
				hits = append(hits, uint64(j)<<8|uint64(d))
			}
		}
		if len(hits)-seg > 24 {
			slices.Sort(hits[seg:])
		} else {
			sortPacked(hits[seg:])
		}
		starts[a-lo+1] = int32(len(hits))
	}
	s.hits = hits
	return pruned
}

// splitRange is scanRange for the split-half strategy: per vertex a, the
// high-half runs within hiRad, then the low-half runs within
// radius−1−hiRad (see splitTables for the pigeonhole argument).
func (sc *edgeScanner) splitRange(t scanTask, s *scanScratch, starts []int32) int {
	lo, hi := t.lo, t.hi
	pruned := 0
	hits := s.hits
	starts[0] = 0
	vals, tab, radius := sc.vals, sc.tab.perString, sc.radius
	lb, hiRad := sc.loBits, sc.hiRad
	hiStart, loStart, loEnt, hiBall, loBall := sc.hiStart, sc.loStart, sc.loEnt, sc.hiBall, sc.loBall
	loMask := bitstring.BitString(1)<<lb - 1
	for a := lo; a < hi; a++ {
		va := vals[a]
		ha, la := va>>lb, va&loMask
		seg := len(hits)
		// High-half runs within hiRad. A lower run holds only b < a, and
		// a's own run (the zero delta) starts just past a.
		for _, m := range hiBall {
			h := ha ^ bitstring.BitString(m>>8)
			if h < ha {
				continue
			}
			b, end := int(hiStart[h]), int(hiStart[h+1])
			if h == ha {
				b = a + 1
			}
			for ; b < end; b++ {
				d := bits.OnesCount64(uint64(va ^ vals[b]))
				if d > radius {
					continue
				}
				if tab[d] == 0 {
					pruned++
					continue
				}
				hits = append(hits, uint64(b)<<8|uint64(d))
			}
		}
		// Low-half runs, keeping only the pairs whose high halves differ
		// in more than hiRad bits (the rest were found above). Those
		// halves differ, so b > a iff hb > ha: walk each run down from
		// its top and stop at the first entry whose high half is at or
		// below a's.
		for _, m := range loBall {
			l := la ^ bitstring.BitString(m>>8)
			dl := int(m & 0xff)
			run := loEnt[loStart[l]:loStart[l+1]]
			for k := len(run) - 1; k >= 0; k-- {
				e := run[k]
				hb := bitstring.BitString(e >> 32)
				if hb <= ha {
					break
				}
				dh := bits.OnesCount64(uint64(ha ^ hb))
				if dh <= hiRad || dh+dl > radius {
					continue
				}
				if tab[dh+dl] == 0 {
					pruned++
					continue
				}
				hits = append(hits, uint64(uint32(e))<<8|uint64(dh+dl))
			}
		}
		if len(hits)-seg > 24 {
			slices.Sort(hits[seg:])
		} else {
			sortPacked(hits[seg:])
		}
		starts[a-lo+1] = int32(len(hits))
	}
	s.hits = hits
	return pruned
}

// sortPacked is an insertion sort for the short per-vertex (sphere: per
// top-bit-group) hit runs — a handful of elements each, where a generic
// sort's dispatch overhead would exceed the work.
//
//qbeep:mustinline
//qbeep:allocfree
func sortPacked(s []uint64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
