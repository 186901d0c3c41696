package rcnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

func TestLineTopology(t *testing.T) {
	ckt := netlist.NewCircuit()
	nodes := Line(ckt, LineSpec{Name: "v", Segments: 4, RTotal: 400, CGround: 40e-15})
	if len(nodes) != 5 {
		t.Fatalf("got %d nodes, want 5", len(nodes))
	}
	if nodes[0] != "v.0" || nodes[4] != "v.4" {
		t.Fatalf("node names %v", nodes)
	}
	if len(ckt.Resistors) != 4 {
		t.Fatalf("got %d resistors", len(ckt.Resistors))
	}
	// Total R preserved.
	r := 0.0
	for _, res := range ckt.Resistors {
		r += res.R
	}
	if math.Abs(r-400) > 1e-9 {
		t.Fatalf("total R = %v", r)
	}
	// Total C preserved.
	c := 0.0
	for _, cap := range ckt.Capacitors {
		c += cap.C
	}
	if math.Abs(c-40e-15) > 1e-24 {
		t.Fatalf("total C = %v", c)
	}
}

func TestLinePanicsOnZeroSegments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Line(netlist.NewCircuit(), LineSpec{Name: "v", Segments: 0, RTotal: 1, CGround: 1e-15})
}

func TestCoupleSpanAndTotal(t *testing.T) {
	ckt := netlist.NewCircuit()
	a := Line(ckt, LineSpec{Name: "a", Segments: 8, RTotal: 100, CGround: 10e-15})
	b := Line(ckt, LineSpec{Name: "b", Segments: 8, RTotal: 100, CGround: 10e-15})
	Couple(ckt, "x", a, b, 24e-15, 0.25, 0.75)
	total := 0.0
	count := 0
	for _, cap := range ckt.Capacitors {
		if strings.HasPrefix(cap.Name, "x.cc") {
			total += cap.C
			count++
		}
	}
	if math.Abs(total-24e-15) > 1e-24 {
		t.Fatalf("coupling total = %v", total)
	}
	if count < 3 {
		t.Fatalf("coupling distributed over only %d nodes", count)
	}
}

func TestCoupleInvalidSpanPanics(t *testing.T) {
	ckt := netlist.NewCircuit()
	a := Line(ckt, LineSpec{Name: "a", Segments: 2, RTotal: 1, CGround: 1e-15})
	b := Line(ckt, LineSpec{Name: "b", Segments: 2, RTotal: 1, CGround: 1e-15})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Couple(ckt, "x", a, b, 1e-15, 0.8, 0.2)
}

func TestBuildCoupledNet(t *testing.T) {
	net := Build(CoupledSpec{
		Victim: LineSpec{Name: "v", Segments: 6, RTotal: 300, CGround: 30e-15},
		Aggressors: []AggressorSpec{
			{Line: LineSpec{Name: "a0", Segments: 6, RTotal: 200, CGround: 20e-15}, CCouple: 25e-15, From: 0, To: 1},
			{Line: LineSpec{Name: "a1", Segments: 6, RTotal: 250, CGround: 25e-15}, CCouple: 15e-15, From: 0.5, To: 1},
		},
	})
	if net.VictimIn != "v.0" || net.VictimOut != "v.6" {
		t.Fatalf("victim ports %v %v", net.VictimIn, net.VictimOut)
	}
	if len(net.AggIn) != 2 || net.AggIn[0] != "a0.0" || net.AggIn[1] != "a1.0" {
		t.Fatalf("aggressor ports %v", net.AggIn)
	}
	if math.Abs(net.TotalCouplingCap()-40e-15) > 1e-24 {
		t.Fatalf("TotalCouplingCap = %v", net.TotalCouplingCap())
	}
	if math.Abs(net.VictimTotalCap()-70e-15) > 1e-24 {
		t.Fatalf("VictimTotalCap = %v", net.VictimTotalCap())
	}
}

// TestElmoreDelayShape verifies the built line behaves like a distributed
// RC line: the far-end 50% delay of a step should be near 0.5*R*C
// (distributed Elmore ~ RC/2 for many segments, x ln 2 scaling aside).
func TestElmoreDelayShape(t *testing.T) {
	ckt := netlist.NewCircuit()
	r, c := 1000.0, 100e-15
	nodes := Line(ckt, LineSpec{Name: "v", Segments: 20, RTotal: r, CGround: c})
	ckt.AddDriver("drv", nodes[0], waveform.Ramp(0, 1e-13, 0, 1), 1e-2)
	sys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lsim.Run(sys, lsim.Options{TStop: 1e-9, Step: 2e-13})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage(nodes[len(nodes)-1])
	t50, err := v.CrossRising(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Distributed RC line 50% delay ~ 0.38 * R * C.
	want := 0.38 * r * c
	if t50 < 0.5*want || t50 > 2*want {
		t.Fatalf("t50 = %v, want ~%v", t50, want)
	}
	// Far end is slower than a middle node.
	vm, _ := res.Voltage(nodes[len(nodes)/2])
	tm, err := vm.CrossRising(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tm >= t50 {
		t.Fatalf("middle node (%v) should cross before far end (%v)", tm, t50)
	}
}

func TestBuildTree(t *testing.T) {
	tree := BuildTree(TreeSpec{
		Coupled: CoupledSpec{
			Victim: LineSpec{Name: "v", Segments: 6, RTotal: 300, CGround: 30e-15},
			Aggressors: []AggressorSpec{
				{Line: LineSpec{Name: "a", Segments: 6, RTotal: 250, CGround: 25e-15}, CCouple: 20e-15, From: 0, To: 1},
			},
		},
		Branches: []BranchSpec{
			{At: 0.5, Line: LineSpec{Name: "b0", Segments: 3, RTotal: 150, CGround: 10e-15}},
			{At: 1.0, Line: LineSpec{Name: "b1", Segments: 2, RTotal: 100, CGround: 8e-15}},
		},
	})
	sinks := tree.Sinks()
	if len(sinks) != 3 {
		t.Fatalf("got %d sinks", len(sinks))
	}
	if sinks[0] != "v.6" || sinks[1] != "b0.3" || sinks[2] != "b1.2" {
		t.Fatalf("sinks = %v", sinks)
	}
	// All sinks must be electrically reachable from the trunk driver.
	ckt := tree.Circuit.Clone()
	ckt.AddDriver("drv", tree.VictimIn, waveform.Ramp(0, 1e-13, 0, 1), 1)
	ckt.AddDriver("hold", tree.AggIn[0], waveform.Constant(0), 500)
	sys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lsim.Run(sys, lsim.Options{TStop: 3e-9, Step: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		v, err := res.Voltage(s)
		if err != nil {
			t.Fatal(err)
		}
		if v.At(3e-9) < 0.95 {
			t.Fatalf("sink %s never charged: %v", s, v.At(3e-9))
		}
	}
}

func TestBuildTreeBadTapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildTree(TreeSpec{
		Coupled: CoupledSpec{Victim: LineSpec{Name: "v", Segments: 2, RTotal: 1, CGround: 1e-15}},
		Branches: []BranchSpec{
			{At: 1.5, Line: LineSpec{Name: "b", Segments: 1, RTotal: 1, CGround: 1e-15}},
		},
	})
}

// TestBuildPreservesTotalsProperty: any generated coupled spec preserves
// total resistance and capacitance per line and total coupling.
func TestBuildPreservesTotalsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := CoupledSpec{
			Victim: LineSpec{Name: "v", Segments: 1 + rng.Intn(10),
				RTotal: 10 + 1000*rng.Float64(), CGround: 1e-15 + 50e-15*rng.Float64()},
		}
		nAgg := 1 + rng.Intn(3)
		for k := 0; k < nAgg; k++ {
			from := 0.6 * rng.Float64()
			spec.Aggressors = append(spec.Aggressors, AggressorSpec{
				Line: LineSpec{Name: fmt.Sprintf("a%d", k), Segments: 1 + rng.Intn(10),
					RTotal: 10 + 1000*rng.Float64(), CGround: 1e-15 + 50e-15*rng.Float64()},
				CCouple: 1e-15 + 30e-15*rng.Float64(),
				From:    from, To: from + 0.2 + (1-from-0.2)*rng.Float64(),
			})
		}
		net := Build(spec)
		// Total R across all lines.
		wantR := spec.Victim.RTotal
		wantC := spec.Victim.CGround
		for _, a := range spec.Aggressors {
			wantR += a.Line.RTotal
			wantC += a.Line.CGround + a.CCouple
		}
		gotR, gotC := 0.0, 0.0
		for _, r := range net.Circuit.Resistors {
			gotR += r.R
		}
		for _, c := range net.Circuit.Capacitors {
			gotC += c.C
		}
		return math.Abs(gotR-wantR) < 1e-6*wantR && math.Abs(gotC-wantC) < 1e-6*wantC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSpecValidate(t *testing.T) {
	line := LineSpec{Name: "v", Segments: 2, RTotal: 1, CGround: 1e-15}
	agg := AggressorSpec{Line: LineSpec{Name: "a", Segments: 2, RTotal: 1, CGround: 1e-15}, CCouple: 1e-15, From: 0, To: 1}
	good := TreeSpec{
		Coupled:  CoupledSpec{Victim: line, Aggressors: []AggressorSpec{agg}},
		Branches: []BranchSpec{{At: 0.5, Line: LineSpec{Name: "b", Segments: 1, RTotal: 1, CGround: 1e-15}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*TreeSpec){
		"victim segments":     func(s *TreeSpec) { s.Coupled.Victim.Segments = 0 },
		"aggressor segments":  func(s *TreeSpec) { s.Coupled.Aggressors[0].Line.Segments = -1 },
		"reversed span":       func(s *TreeSpec) { s.Coupled.Aggressors[0].From, s.Coupled.Aggressors[0].To = 1, 0 },
		"NaN span":            func(s *TreeSpec) { s.Coupled.Aggressors[0].From = math.NaN() },
		"tap past the end":    func(s *TreeSpec) { s.Branches[0].At = 1.5 },
		"NaN tap":             func(s *TreeSpec) { s.Branches[0].At = math.NaN() },
		"branch segments":     func(s *TreeSpec) { s.Branches[0].Line.Segments = 0 },
		"too many segments":   func(s *TreeSpec) { s.Coupled.Victim.Segments = MaxSegments + 1 },
		"zero resistance":     func(s *TreeSpec) { s.Coupled.Victim.RTotal = 0 },
		"NaN resistance":      func(s *TreeSpec) { s.Coupled.Aggressors[0].Line.RTotal = math.NaN() },
		"infinite resistance": func(s *TreeSpec) { s.Coupled.Victim.RTotal = math.Inf(1) },
		"negative ground cap": func(s *TreeSpec) { s.Branches[0].Line.CGround = -1e-15 },
		"NaN ground cap":      func(s *TreeSpec) { s.Coupled.Victim.CGround = math.NaN() },
		"negative coupling":   func(s *TreeSpec) { s.Coupled.Aggressors[0].CCouple = -1e-15 },
		"NaN coupling":        func(s *TreeSpec) { s.Coupled.Aggressors[0].CCouple = math.NaN() },
	} {
		bad := good
		bad.Coupled.Aggressors = []AggressorSpec{agg}
		bad.Branches = append([]BranchSpec(nil), good.Branches...)
		edit(&bad)
		if err := bad.Validate(); !errors.Is(err, noiseerr.ErrInvalidCase) {
			t.Errorf("%s: err %v, want ErrInvalidCase", name, err)
		}
	}
}
