// Package device models quantum processors the way Q-BEEP consumes them: a
// qubit topology (coupling map) plus runtime calibration statistics (T1/T2,
// gate errors and durations, readout error). It ships a catalog of 16
// synthetic IBMQ-like superconducting backends and one trapped-ion backend,
// substituting for the real machines in the paper's evaluation (see
// DESIGN.md §2).
//
// Sharing contract: the catalog and the trapped-ion backend are built
// once per process, and the *Backend, *Topology and *Calibration values
// that Catalog, ByName, CatalogSubset and IonBackend return are shared by
// every caller and goroutine. They are read-only: never write to them.
// A modified backend is a new value, from Drifted or the JSON loader.
package device

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is an undirected qubit coupling, stored with A < B.
type Edge struct {
	A, B int
}

// NormEdge returns the canonical (A < B) form of an edge.
func NormEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// Topology is an undirected coupling graph over n qubits. It is immutable
// once built: Edges and Neighbors hand out its own slices, which callers
// must not modify.
type Topology struct {
	n     int
	edges []Edge  // sorted lexicographically
	adj   [][]int // sorted neighbor lists
}

// NewTopology builds a topology from an edge list. Edges must connect
// distinct in-range qubits; duplicates are merged.
func NewTopology(n int, edges []Edge) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("device: width %d must be positive", n)
	}
	t := &Topology{n: n, edges: make([]Edge, 0, len(edges)), adj: make([][]int, n)}
	for _, e := range edges {
		if e.A == e.B {
			return nil, fmt.Errorf("device: self-loop on qubit %d", e.A)
		}
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
			return nil, fmt.Errorf("device: edge (%d,%d) outside [0,%d)", e.A, e.B, n)
		}
		t.edges = append(t.edges, NormEdge(e.A, e.B))
	}
	slices.SortFunc(t.edges, func(x, y Edge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	t.edges = slices.Compact(t.edges)
	// Walking the sorted edges appends each qubit's lower neighbors
	// (edges (a,q), ascending a) before its higher ones (edges (q,b),
	// ascending b), so every adjacency list comes out sorted.
	for _, e := range t.edges {
		t.adj[e.A] = append(t.adj[e.A], e.B)
		t.adj[e.B] = append(t.adj[e.B], e.A)
	}
	return t, nil
}

// N returns the number of qubits.
func (t *Topology) N() int { return t.n }

// Connected reports whether qubits a and b are directly coupled.
func (t *Topology) Connected(a, b int) bool {
	if a < 0 || a >= t.n {
		return false
	}
	_, ok := slices.BinarySearch(t.adj[a], b)
	return ok
}

// Neighbors returns the sorted neighbor list of qubit q. The slice is
// shared and must not be modified.
func (t *Topology) Neighbors(q int) []int { return t.adj[q] }

// Edges returns all edges sorted lexicographically. The slice is shared
// and must not be modified.
func (t *Topology) Edges() []Edge { return t.edges }

// ShortestPath returns a shortest qubit path from a to b (inclusive) via
// BFS, or an error if disconnected. Ties break toward smaller qubit
// indices, keeping routing deterministic.
func (t *Topology) ShortestPath(a, b int) ([]int, error) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		return nil, fmt.Errorf("device: path endpoints (%d,%d) outside [0,%d)", a, b, t.n)
	}
	if a == b {
		return []int{a}, nil
	}
	prev := make([]int, t.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, nb := range t.adj[q] {
			if prev[nb] != -1 {
				continue
			}
			prev[nb] = q
			if nb == b {
				var path []int
				for cur := b; cur != a; cur = prev[cur] {
					path = append(path, cur)
				}
				path = append(path, a)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("device: qubits %d and %d are disconnected", a, b)
}

// Distance returns the coupling-graph distance between a and b.
func (t *Topology) Distance(a, b int) (int, error) {
	p, err := t.ShortestPath(a, b)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}

// IsConnected reports whether the whole graph is one component.
func (t *Topology) IsConnected() bool {
	if t.n == 0 {
		return true
	}
	seen := make([]bool, t.n)
	seen[0] = true
	stack := []int{0}
	count := 1
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range t.adj[q] {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == t.n
}

// Standard topology generators.

// Linear returns a 0-1-2-...-n-1 chain.
func Linear(n int) (*Topology, error) {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{A: i, B: i + 1})
	}
	return NewTopology(n, edges)
}

// Ring returns a cycle.
func Ring(n int) (*Topology, error) {
	if n < 3 {
		return nil, fmt.Errorf("device: ring needs >= 3 qubits, got %d", n)
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, NormEdge(i, (i+1)%n))
	}
	return NewTopology(n, edges)
}

// Grid returns a rows×cols lattice.
func Grid(rows, cols int) (*Topology, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("device: grid %dx%d invalid", rows, cols)
	}
	n := rows * cols
	var edges []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			q := r*cols + c
			if c+1 < cols {
				edges = append(edges, Edge{A: q, B: q + 1})
			}
			if r+1 < rows {
				edges = append(edges, Edge{A: q, B: q + cols})
			}
		}
	}
	return NewTopology(n, edges)
}

// AllToAll returns a complete coupling graph — the trapped-ion abstraction.
func AllToAll(n int) (*Topology, error) {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{A: i, B: j})
		}
	}
	return NewTopology(n, edges)
}

// TShape returns IBM's 5-qubit "T"/bowtie-like layout used by the small
// Quito/Belem/Lima class devices: 0-1, 1-2, 1-3, 3-4.
func TShape() (*Topology, error) {
	return NewTopology(5, []Edge{{0, 1}, {1, 2}, {1, 3}, {3, 4}})
}

// HeavyHex returns an approximation of IBM's heavy-hex lattice with the
// given number of unit cells per row and rows. Heavy-hex places qubits on
// both the vertices and the edges of a hexagonal lattice; the resulting
// sparse degree-2/3 graph is what IBMQ Falcon (27q), Hummingbird (65q) and
// Eagle (127q) processors use. The construction below follows IBM's rows of
// horizontal chains linked by vertical bridge qubits.
func HeavyHex(rows, rowLen int) (*Topology, error) {
	if rows <= 0 || rowLen < 3 {
		return nil, fmt.Errorf("device: heavy-hex %dx%d invalid", rows, rowLen)
	}
	// Each row is a chain of rowLen qubits; between consecutive rows a
	// bridge qubit connects matching columns every 4 positions, offset by 2
	// on odd rows (the heavy-hex staggering).
	var edges []Edge
	rowStart := make([]int, rows)
	next := 0
	for r := 0; r < rows; r++ {
		rowStart[r] = next
		for i := 0; i+1 < rowLen; i++ {
			edges = append(edges, Edge{A: next + i, B: next + i + 1})
		}
		next += rowLen
	}
	for r := 0; r+1 < rows; r++ {
		offset := 0
		if r%2 == 1 {
			offset = 2
		}
		for col := offset; col < rowLen; col += 4 {
			bridge := next
			next++
			edges = append(edges, Edge{A: rowStart[r] + col, B: bridge})
			edges = append(edges, Edge{A: bridge, B: rowStart[r+1] + col})
		}
	}
	return NewTopology(next, edges)
}
