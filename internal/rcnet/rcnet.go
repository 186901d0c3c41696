// Package rcnet builds the coupled RC interconnect topologies the
// experiments use: distributed RC lines with neighbor coupling, matching
// the victim/aggressor structure of the paper's Figure 1(a).
package rcnet

import (
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/noiseerr"
)

// LineSpec describes one distributed RC line.
type LineSpec struct {
	Name     string  // node-name prefix, e.g. "v" or "a0"
	Segments int     // number of RC segments (>= 1)
	RTotal   float64 // total line resistance, ohm
	CGround  float64 // total line-to-ground capacitance, F
}

// Line adds a distributed RC line to the circuit as a ladder of Segments
// pi-segments. Node names are "<Name>.0" (near end, driver side) through
// "<Name>.<Segments>" (far end, receiver side). It returns the node names
// in order.
func Line(ckt *netlist.Circuit, spec LineSpec) []string {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	n := spec.Segments
	rSeg := spec.RTotal / float64(n)
	// Pi model: half the segment capacitance at each segment boundary.
	nodes := make([]string, n+1)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("%s.%d", spec.Name, i)
	}
	for i := 0; i < n; i++ {
		ckt.AddR(fmt.Sprintf("%s.r%d", spec.Name, i), nodes[i], nodes[i+1], rSeg)
	}
	cNode := spec.CGround / float64(n)
	for i, node := range nodes {
		c := cNode
		if i == 0 || i == n {
			c = cNode / 2
		}
		if c > 0 {
			ckt.AddC(fmt.Sprintf("%s.c%d", spec.Name, i), node, netlist.Ground, c)
		}
	}
	return nodes
}

// Couple adds coupling capacitance CC between two lines over the segment
// span [from, to) expressed as fractions of the line length (0 <= from <
// to <= 1). The total coupling capacitance is distributed uniformly over
// the spanned victim nodes; both lines must have been built with the same
// number of segments for physical plausibility, but any node lists work.
func Couple(ckt *netlist.Circuit, name string, a, b []string, cc, from, to float64) {
	if err := validSpan(from, to); err != nil {
		panic(err.Error())
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	lo := int(from * float64(n-1))
	hi := int(to*float64(n-1) + 0.5)
	if hi <= lo {
		hi = lo + 1
	}
	if hi > n-1 {
		hi = n - 1
	}
	count := hi - lo + 1
	per := cc / float64(count)
	for i := lo; i <= hi; i++ {
		ckt.AddC(fmt.Sprintf("%s.cc%d", name, i), a[i], b[i], per)
	}
}

// MaxSegments bounds LineSpec.Segments: a small spec cannot ask for a huge ladder.
const MaxSegments = 1000

// Validate reports, as an ErrInvalidCase-classified error, why Line
// would reject spec: a segment count outside [1, MaxSegments], a
// resistance that is not positive and finite, or a ground capacitance
// that is negative or not finite (NaN included).
func (spec LineSpec) Validate() error {
	switch {
	case spec.Segments < 1 || spec.Segments > MaxSegments:
		return noiseerr.Invalidf("rcnet: line %q needs 1 to %d segments, got %d", spec.Name, MaxSegments, spec.Segments)
	case !(spec.RTotal > 0) || math.IsInf(spec.RTotal, 1):
		return noiseerr.Invalidf("rcnet: line %q resistance %g is not positive and finite", spec.Name, spec.RTotal)
	case !(spec.CGround >= 0) || math.IsInf(spec.CGround, 1):
		return noiseerr.Invalidf("rcnet: line %q ground capacitance %g is not non-negative and finite", spec.Name, spec.CGround)
	}
	return nil
}

// validSpan rejects a coupling span outside 0 <= from < to <= 1 (NaN
// included).
func validSpan(from, to float64) error {
	if !(0 <= from && from < to && to <= 1) {
		return noiseerr.Invalidf("rcnet: invalid coupling span [%g, %g)", from, to)
	}
	return nil
}

// AggressorSpec describes one aggressor line coupled to the victim.
type AggressorSpec struct {
	Line     LineSpec
	CCouple  float64 // total coupling capacitance to the victim, F
	From, To float64 // coupled span as fractions of line length
}

// CoupledSpec describes a full victim/aggressor cluster.
type CoupledSpec struct {
	Victim     LineSpec
	Aggressors []AggressorSpec
}

// Validate reports, as an ErrInvalidCase-classified error, the first
// reason Build would reject spec, so decoders of untrusted specs can
// refuse them before building.
func (spec CoupledSpec) Validate() error {
	if err := spec.Victim.Validate(); err != nil {
		return err
	}
	for i, agg := range spec.Aggressors {
		if err := agg.Line.Validate(); err != nil {
			return fmt.Errorf("aggressor %d: %w", i, err)
		}
		if err := validSpan(agg.From, agg.To); err != nil {
			return fmt.Errorf("aggressor %d: %w", i, err)
		}
		if !(agg.CCouple >= 0) || math.IsInf(agg.CCouple, 1) {
			return noiseerr.Invalidf("rcnet: aggressor %d coupling %g is not non-negative and finite", i, agg.CCouple)
		}
	}
	return nil
}

// CoupledNet is the built interconnect: the circuit (no drivers), the
// victim end points and the aggressor drive points.
type CoupledNet struct {
	Circuit   *netlist.Circuit
	VictimIn  string   // victim driver output node
	VictimOut string   // victim receiver input node
	AggIn     []string // aggressor driver output nodes
	AggOut    []string // aggressor far-end nodes
	Spec      CoupledSpec
}

// Build constructs the coupled interconnect network.
func Build(spec CoupledSpec) *CoupledNet {
	ckt := netlist.NewCircuit()
	vNodes := Line(ckt, spec.Victim)
	net := &CoupledNet{
		Circuit:   ckt,
		VictimIn:  vNodes[0],
		VictimOut: vNodes[len(vNodes)-1],
		Spec:      spec,
	}
	for i, agg := range spec.Aggressors {
		aNodes := Line(ckt, agg.Line)
		Couple(ckt, fmt.Sprintf("x%d", i), vNodes, aNodes, agg.CCouple, agg.From, agg.To)
		net.AggIn = append(net.AggIn, aNodes[0])
		net.AggOut = append(net.AggOut, aNodes[len(aNodes)-1])
	}
	return net
}

// BranchSpec describes one side branch of a tree-shaped victim net.
type BranchSpec struct {
	// At is the trunk position the branch taps, as a fraction of the
	// trunk length in [0, 1].
	At   float64
	Line LineSpec
}

// TreeSpec describes a branching victim net: a trunk (the CoupledSpec
// victim line, with its aggressors coupled to the trunk) plus side
// branches, each ending in its own sink.
type TreeSpec struct {
	Coupled  CoupledSpec
	Branches []BranchSpec
}

// Validate reports, as an ErrInvalidCase-classified error, the first
// reason BuildTree would reject spec: a bad trunk cluster, a bad branch
// line, or a branch tap outside [0, 1].
func (spec TreeSpec) Validate() error {
	if err := spec.Coupled.Validate(); err != nil {
		return err
	}
	for k, br := range spec.Branches {
		if !(0 <= br.At && br.At <= 1) {
			return noiseerr.Invalidf("rcnet: branch %d tap %g outside [0, 1]", k, br.At)
		}
		if err := br.Line.Validate(); err != nil {
			return fmt.Errorf("branch %d: %w", k, err)
		}
	}
	return nil
}

// TreeNet is a built tree: the trunk cluster plus the branch sinks.
type TreeNet struct {
	*CoupledNet
	// BranchOut lists the far-end node of each branch, in spec order.
	// The trunk's own far end remains CoupledNet.VictimOut.
	BranchOut []string
}

// BuildTree constructs a branching victim net. Branch k's near end is
// merged onto the trunk node closest to Branches[k].At.
func BuildTree(spec TreeSpec) *TreeNet {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	base := Build(spec.Coupled)
	tree := &TreeNet{CoupledNet: base}
	segs := spec.Coupled.Victim.Segments
	for _, br := range spec.Branches {
		tap := fmt.Sprintf("%s.%d", spec.Coupled.Victim.Name, int(br.At*float64(segs)+0.5))
		nodes := Line(base.Circuit, br.Line)
		// Merge the branch's near end onto the trunk tap with a tiny via
		// resistance (a zero-resistance merge would need node aliasing).
		base.Circuit.AddR(fmt.Sprintf("%s.tap", br.Line.Name), tap, nodes[0], 0.1)
		tree.BranchOut = append(tree.BranchOut, nodes[len(nodes)-1])
	}
	return tree
}

// Sinks returns every receiver-side node of the tree: the trunk far end
// followed by the branch far ends.
func (t *TreeNet) Sinks() []string {
	return append([]string{t.VictimOut}, t.BranchOut...)
}

// TotalCouplingCap returns the total victim coupling capacitance.
func (n *CoupledNet) TotalCouplingCap() float64 {
	s := 0.0
	for _, a := range n.Spec.Aggressors {
		s += a.CCouple
	}
	return s
}

// VictimTotalCap returns the victim's total capacitance (ground +
// coupling), the starting point for C-effective iterations.
func (n *CoupledNet) VictimTotalCap() float64 {
	return n.Spec.Victim.CGround + n.TotalCouplingCap()
}
