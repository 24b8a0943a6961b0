// Package qasm serializes circuits to OpenQASM 2.0 and parses the subset
// of OpenQASM 2.0 the serializer emits (plus common QASMBench constructs):
// qreg/creg declarations, the standard gate vocabulary, measure and
// barrier. It exists so workloads interchange with the wider ecosystem the
// paper's artifacts use (QASMBench circuits are OpenQASM files).
package qasm

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"qbeep/internal/circuit"
	"qbeep/internal/obs"
)

// metParse times Parse calls (seconds; see internal/obs).
var metParse = obs.Default.Timer("qasm.parse")

// Write renders the circuit as an OpenQASM 2.0 program with one quantum
// and one classical register, both named q/c and sized to the circuit.
func Write(c *circuit.Circuit) (string, error) {
	if err := c.Err(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// %s\n", c.Name)
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.N)
	fmt.Fprintf(&b, "creg c[%d];\n", c.N)
	for _, g := range c.Gates {
		line, err := writeGate(g)
		if err != nil {
			return "", err
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func writeGate(g circuit.Gate) (string, error) {
	qs := make([]string, len(g.Qubits))
	for i, q := range g.Qubits {
		qs[i] = fmt.Sprintf("q[%d]", q)
	}
	args := strings.Join(qs, ",")
	switch g.Kind {
	case circuit.Measure:
		return fmt.Sprintf("measure q[%d] -> c[%d];", g.Qubits[0], g.Qubits[0]), nil
	case circuit.Barrier:
		return fmt.Sprintf("barrier %s;", args), nil
	case circuit.RX, circuit.RY, circuit.RZ:
		return fmt.Sprintf("%s(%s) %s;", g.Kind, formatFloat(g.Params[0]), args), nil
	case circuit.U3:
		return fmt.Sprintf("u3(%s,%s,%s) %s;",
			formatFloat(g.Params[0]), formatFloat(g.Params[1]), formatFloat(g.Params[2]), args), nil
	case circuit.I:
		return fmt.Sprintf("id %s;", args), nil
	case circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.Sdg,
		circuit.T, circuit.Tdg, circuit.SX, circuit.CX, circuit.CZ,
		circuit.SWAP, circuit.CCX, circuit.CSWAP:
		return fmt.Sprintf("%s %s;", g.Kind, args), nil
	default:
		return "", fmt.Errorf("qasm: cannot serialize %s", g.Kind)
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}

var kindByName = map[string]circuit.Kind{
	"id": circuit.I, "x": circuit.X, "y": circuit.Y, "z": circuit.Z,
	"h": circuit.H, "s": circuit.S, "sdg": circuit.Sdg, "t": circuit.T,
	"tdg": circuit.Tdg, "sx": circuit.SX, "rx": circuit.RX, "ry": circuit.RY,
	"rz": circuit.RZ, "u3": circuit.U3, "cx": circuit.CX, "cnot": circuit.CX,
	"cz": circuit.CZ, "swap": circuit.SWAP, "ccx": circuit.CCX,
	"toffoli": circuit.CCX, "cswap": circuit.CSWAP,
}

// expanders translates the common qelib1 aliases that are not native IR
// kinds into gate sequences (up to global phase). Real QASMBench files
// use the legacy u1/u2/u and cu1 names heavily.
var expanders = map[string]func(params []float64, qubits []int) ([]circuit.Gate, error){
	// u1(λ) and p(λ): a Z-rotation up to global phase.
	"u1": func(p []float64, q []int) ([]circuit.Gate, error) {
		if len(p) != 1 || len(q) != 1 {
			return nil, fmt.Errorf("u1 expects 1 param, 1 qubit")
		}
		return []circuit.Gate{{Kind: circuit.RZ, Qubits: q, Params: p}}, nil
	},
	"p": func(p []float64, q []int) ([]circuit.Gate, error) {
		if len(p) != 1 || len(q) != 1 {
			return nil, fmt.Errorf("p expects 1 param, 1 qubit")
		}
		return []circuit.Gate{{Kind: circuit.RZ, Qubits: q, Params: p}}, nil
	},
	// u2(φ,λ) = U3(π/2, φ, λ).
	"u2": func(p []float64, q []int) ([]circuit.Gate, error) {
		if len(p) != 2 || len(q) != 1 {
			return nil, fmt.Errorf("u2 expects 2 params, 1 qubit")
		}
		return []circuit.Gate{{Kind: circuit.U3, Qubits: q,
			Params: []float64{math.Pi / 2, p[0], p[1]}}}, nil
	},
	// u(θ,φ,λ): the OpenQASM 3-parameter generic rotation.
	"u": func(p []float64, q []int) ([]circuit.Gate, error) {
		if len(p) != 3 || len(q) != 1 {
			return nil, fmt.Errorf("u expects 3 params, 1 qubit")
		}
		return []circuit.Gate{{Kind: circuit.U3, Qubits: q, Params: p}}, nil
	},
	// cu1(λ) = controlled-phase: u1(λ/2) a · cx · u1(-λ/2) b · cx · u1(λ/2) b.
	"cu1": func(p []float64, q []int) ([]circuit.Gate, error) {
		if len(p) != 1 || len(q) != 2 {
			return nil, fmt.Errorf("cu1 expects 1 param, 2 qubits")
		}
		l := p[0]
		a, b := q[0], q[1]
		return []circuit.Gate{
			{Kind: circuit.RZ, Qubits: []int{a}, Params: []float64{l / 2}},
			{Kind: circuit.CX, Qubits: []int{a, b}},
			{Kind: circuit.RZ, Qubits: []int{b}, Params: []float64{-l / 2}},
			{Kind: circuit.CX, Qubits: []int{a, b}},
			{Kind: circuit.RZ, Qubits: []int{b}, Params: []float64{l / 2}},
		}, nil
	},
	// rzz(θ) = cx · rz(θ) b · cx, the ZZ interaction QAOA files emit.
	"rzz": func(p []float64, q []int) ([]circuit.Gate, error) {
		if len(p) != 1 || len(q) != 2 {
			return nil, fmt.Errorf("rzz expects 1 param, 2 qubits")
		}
		a, b := q[0], q[1]
		return []circuit.Gate{
			{Kind: circuit.CX, Qubits: []int{a, b}},
			{Kind: circuit.RZ, Qubits: []int{b}, Params: []float64{p[0]}},
			{Kind: circuit.CX, Qubits: []int{a, b}},
		}, nil
	},
}

// Parse reads an OpenQASM 2.0 program in the supported subset and returns
// the circuit. The classical register is implicit (measurements map qubit
// i to clbit i); gate parameters accept numeric literals and simple
// pi-expressions (pi, -pi, pi/2, 3*pi/4, ...).
func Parse(src string) (*circuit.Circuit, error) {
	return ParseCtx(context.Background(), src) //qbeep:allow-ctx kept context-free: the end-to-end benchmark harness (benchjob/workload.go) calls Parse
}

// ParseCtx is Parse with trace-context propagation: the "qasm.parse" span
// parents under the span active in ctx.
func ParseCtx(ctx context.Context, src string) (*circuit.Circuit, error) {
	_, sp := obs.Start(ctx, "qasm.parse")
	// Ending via defer keeps the span from leaking on parse errors
	// (qbeep-lint spanend); attributes set below still precede it.
	defer sp.End()
	defer metParse.Start()()
	name := "qasm"
	n := 0
	var c *circuit.Circuit
	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := strings.TrimSpace(raw)
		if i := strings.Index(line, "//"); i >= 0 {
			if lineNo == 1 && i == 0 {
				name = strings.TrimSpace(line[2:])
			}
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := parseStmt(stmt, &name, &n, &c); err != nil {
				return nil, fmt.Errorf("qasm: line %d: %w", lineNo, err)
			}
		}
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	out, err := c.Finalize()
	if err != nil {
		return nil, err
	}
	sp.SetAttr("circuit", out.Name)
	sp.SetAttr("width", out.N)
	sp.SetAttr("gates", len(out.Gates))
	return out, nil
}

func parseStmt(stmt string, name *string, n *int, c **circuit.Circuit) error {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"),
		strings.HasPrefix(stmt, "creg"):
		return nil
	case strings.HasPrefix(stmt, "qreg"):
		open := strings.Index(stmt, "[")
		closeIdx := strings.Index(stmt, "]")
		if open < 0 || closeIdx < open {
			return fmt.Errorf("bad qreg %q", stmt)
		}
		size, err := strconv.Atoi(stmt[open+1 : closeIdx])
		if err != nil {
			return fmt.Errorf("bad qreg size in %q", stmt)
		}
		if *c != nil {
			return fmt.Errorf("multiple qreg declarations unsupported")
		}
		*n = size
		*c = circuit.New(*name, size)
		return nil
	}
	if *c == nil {
		return fmt.Errorf("gate before qreg: %q", stmt)
	}
	if strings.HasPrefix(stmt, "measure") {
		q, err := parseIndex(stmt, 0)
		if err != nil {
			return err
		}
		(*c).Measure(q)
		return (*c).Err()
	}
	if strings.HasPrefix(stmt, "barrier") {
		qs, err := parseAllIndices(stmt)
		if err != nil {
			return err
		}
		if len(qs) == 0 {
			(*c).Barrier()
		} else {
			(*c).Barrier(qs...)
		}
		return (*c).Err()
	}
	// General gate: name[(params)] q[i],q[j],...
	head := stmt
	var params []float64
	if open := strings.Index(stmt, "("); open >= 0 {
		closeIdx := strings.Index(stmt, ")")
		if closeIdx < open {
			return fmt.Errorf("unbalanced parens in %q", stmt)
		}
		head = strings.TrimSpace(stmt[:open])
		rest := stmt[closeIdx+1:]
		for _, p := range strings.Split(stmt[open+1:closeIdx], ",") {
			v, err := parseAngle(strings.TrimSpace(p))
			if err != nil {
				return err
			}
			params = append(params, v)
		}
		stmt = head + " " + strings.TrimSpace(rest)
	} else {
		fields := strings.Fields(stmt)
		if len(fields) < 2 {
			return fmt.Errorf("bad statement %q", stmt)
		}
		head = fields[0]
	}
	headFields := strings.Fields(head)
	if len(headFields) == 0 {
		return fmt.Errorf("missing gate name in %q", stmt)
	}
	gateName := strings.ToLower(headFields[0])
	qs, err := parseAllIndices(stmt)
	if err != nil {
		return err
	}
	if expand, ok := expanders[gateName]; ok {
		gates, err := expand(params, qs)
		if err != nil {
			return err
		}
		for _, g := range gates {
			(*c).Append(g)
		}
		return (*c).Err()
	}
	kind, ok := kindByName[gateName]
	if !ok {
		return fmt.Errorf("unknown gate %q", gateName)
	}
	(*c).Append(circuit.Gate{Kind: kind, Qubits: qs, Params: params})
	return (*c).Err()
}

// parseIndex extracts the k-th [i] index from the statement.
func parseIndex(stmt string, k int) (int, error) {
	qs, err := parseAllIndices(stmt)
	if err != nil {
		return 0, err
	}
	if k >= len(qs) {
		return 0, fmt.Errorf("missing index %d in %q", k, stmt)
	}
	return qs[k], nil
}

// parseAllIndices extracts every [i] index in order.
func parseAllIndices(stmt string) ([]int, error) {
	var out []int
	for i := 0; i < len(stmt); i++ {
		if stmt[i] != '[' {
			continue
		}
		j := strings.IndexByte(stmt[i:], ']')
		if j < 0 {
			return nil, fmt.Errorf("unbalanced bracket in %q", stmt)
		}
		v, err := strconv.Atoi(stmt[i+1 : i+j])
		if err != nil {
			return nil, fmt.Errorf("bad index in %q: %w", stmt, err)
		}
		out = append(out, v)
		i += j
	}
	return out, nil
}

// parseAngle evaluates a parameter literal: a float, or a simple
// pi-expression of the forms [±][k*]pi[/m].
func parseAngle(s string) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty angle")
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	sign := 1.0
	if strings.HasPrefix(s, "-") {
		sign = -1
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	num := 1.0
	den := 1.0
	if i := strings.Index(s, "*"); i >= 0 {
		v, err := strconv.ParseFloat(strings.TrimSpace(s[:i]), 64)
		if err != nil {
			return 0, fmt.Errorf("bad angle %q", s)
		}
		num = v
		s = strings.TrimSpace(s[i+1:])
	}
	if i := strings.Index(s, "/"); i >= 0 {
		v, err := strconv.ParseFloat(strings.TrimSpace(s[i+1:]), 64)
		if err != nil || v == 0 {
			return 0, fmt.Errorf("bad angle divisor %q", s)
		}
		den = v
		s = strings.TrimSpace(s[:i])
	}
	if strings.TrimSpace(s) != "pi" {
		return 0, fmt.Errorf("bad angle %q", s)
	}
	return sign * num * math.Pi / den, nil
}
