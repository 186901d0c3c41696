// Package gatesim wraps the nonlinear simulator with the gate-level
// simulations the characterization flows need: a cell driving a lumped
// load, optionally with an injected noise current at its output, and a
// cell driving a full linear interconnect. The simulation horizon adapts
// until the output transition is complete.
package gatesim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/nlsim"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// InputStart is the conventional start time of the switching input ramp.
// Keeping a positive pad before the edge gives every simulation a clean
// settled prefix.
const InputStart = 100e-12

// Input builds the standard input ramp for a characterization run.
// slew is the full 0-100% transition time of the saturated ramp.
func Input(tech *device.Technology, slew float64, rising bool) *waveform.PWL {
	if rising {
		return waveform.Ramp(InputStart, slew, 0, tech.Vdd)
	}
	return waveform.Ramp(InputStart, slew, tech.Vdd, 0)
}

// Options tune the adaptive runs.
type Options struct {
	Step    float64 // integration step (default: horizon/4000, min 0.1 ps)
	Horizon float64 // initial horizon guess (default: estimated)
	// Ctx, when non-nil, cancels the underlying nonlinear runs (see
	// nlsim.Options.Ctx).
	Ctx context.Context
	// Steps, when non-nil, is incremented by the committed step count of
	// every successful Receive and ReceiveCross simulation.
	Steps *metrics.Counter
}

// settleBand is the distance from a rail, as a fraction of Vdd, within
// which a waveform counts as settled there. settled's end-of-window
// check and ReceiveCross's early stop share it.
const settleBand = 0.02

// estimateHorizon guesses how long the cell needs to finish driving cload
// plus the input transition, from a crude drive-resistance estimate.
func estimateHorizon(cell *device.Cell, slew, cload float64) float64 {
	// Effective drive resistance ~ Vdd/2 / Idsat of the weaker polarity.
	tech := cell.Tech
	rEst := 0.0
	for _, f := range cell.FETs {
		if f.G != device.PinIn {
			continue
		}
		idsat, _, _ := f.Params.Ids(f.W, tech.Vdd, tech.Vdd)
		if idsat > 0 {
			r := tech.Vdd / 2 / idsat
			if r > rEst {
				rEst = r
			}
		}
	}
	if rEst == 0 {
		rEst = 1e3
	}
	c := cload + cell.OutputCap()
	return InputStart + slew + 25*rEst*c + 200e-12
}

// step returns the integration step for a horizon.
func (o Options) step(horizon float64) float64 {
	if o.Step > 0 {
		return o.Step
	}
	st := horizon / 4000
	if st < 0.1e-12 {
		st = 0.1e-12
	}
	return st
}

// Drive simulates the cell driving a lumped capacitor, with an optional
// current injection inj at the output (nil for none), and returns the
// output waveform. The horizon doubles until the output has settled
// within the settle band of a rail (up to 4 doublings).
func Drive(cell *device.Cell, slew float64, inRising bool, cload float64, inj *waveform.PWL, opt Options) (*waveform.PWL, error) {
	tech := cell.Tech
	horizon := opt.Horizon
	if horizon == 0 {
		horizon = estimateHorizon(cell, slew, cload)
	}
	if inj != nil && inj.End() > horizon {
		horizon = inj.End() + 100e-12
	}
	for attempt := 0; ; attempt++ {
		c := nlsim.NewCircuit()
		in := c.Fixed("in", Input(tech, slew, inRising))
		out := c.Node("out")
		c.AddCell(cell, "u", in, out)
		if cload > 0 {
			c.AddC(out, nlsim.Ground, cload)
		}
		if inj != nil {
			c.AddI(out, inj)
		}
		res, err := nlsim.Run(c, nlsim.Options{TStop: horizon, Step: opt.step(horizon), Ctx: opt.Ctx})
		if err != nil {
			return nil, fmt.Errorf("gatesim: drive sim failed: %w", err)
		}
		v, err := res.Voltage("out")
		if err != nil {
			return nil, err
		}
		if settled(v, tech.Vdd, cell.OutputRisingFor(inRising)) || attempt >= 4 {
			return v, nil
		}
		horizon *= 2
	}
}

// settled reports whether the waveform has completed a transition toward
// the rail implied by outRising and stays there over the final 10% of the
// window. When a noise injection is present the waveform may end slightly
// off-rail; the settle band absorbs that.
func settled(v *waveform.PWL, vdd float64, outRising bool) bool {
	end := v.End()
	start := v.Start()
	checkFrom := end - 0.1*(end-start)
	target := 0.0
	if outRising {
		target = vdd
	}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		t := checkFrom + frac*(end-checkFrom)
		if math.Abs(v.At(t)-target) > settleBand*vdd {
			return false
		}
	}
	return true
}

// Receive simulates a receiver cell whose input is prescribed by the
// waveform in (the paper's Figure 1(d) receiver simulation: the noisy
// superposed waveform drives the gate directly) into a lumped output
// load, and returns the receiver output waveform. The horizon extends
// beyond the input waveform's end to let the output settle.
func Receive(cell *device.Cell, in *waveform.PWL, cload float64, opt Options) (*waveform.PWL, error) {
	return receive(cell, in, cload, opt, nil)
}

// ReceiveCross simulates the receiver as Receive does and returns the
// final 50% crossing of the output in the outRising direction — the
// LastCross of Receive's waveform — but ends the transient once that
// crossing is decided: at the first committed step at or after the
// input's quiet time (quietFrom) with the output within the settle band
// of its target rail. From there on the input stays in the band around
// its final value, which holds the output on that rail, so no later
// crossing exists. The horizon and step are Receive's, so every point
// the run computes is bit-identical to Receive's, and so is the
// crossing.
func ReceiveCross(cell *device.Cell, in *waveform.PWL, cload float64, outRising bool, opt Options) (float64, error) {
	vdd := cell.Tech.Vdd
	band := settleBand * vdd
	tQuiet := quietFrom(in, band)
	target := 0.0
	if outRising {
		target = vdd
	}
	out, err := receive(cell, in, cload, opt, func(t, vout float64) bool {
		return t >= tQuiet && math.Abs(vout-target) <= band
	})
	if err != nil {
		return 0, err
	}
	return LastCross(out, vdd, outRising)
}

// LastCross returns the final Vdd/2 crossing of w in the rising or
// falling direction: the crossing that sets a delay when noise makes a
// transition cross more than once.
func LastCross(w *waveform.PWL, vdd float64, rising bool) (float64, error) {
	if rising {
		return w.LastCrossRising(vdd / 2)
	}
	return w.LastCrossFalling(vdd / 2)
}

// quietFrom returns the first breakpoint time of in after which every
// breakpoint lies within band of the waveform's final value. The
// segments between those breakpoints, and the value held past the last
// one, are then in band too: in never leaves the band after it.
func quietFrom(in *waveform.PWL, band float64) float64 {
	k := in.Len() - 1
	if k < 0 {
		return 0
	}
	final := in.V[k]
	for k > 0 && math.Abs(in.V[k-1]-final) <= band {
		k--
	}
	return in.T[k]
}

// receive is the receiver simulation behind Receive and ReceiveCross.
// A non-nil stop ends the run at the first committed step it accepts,
// given the step's time and output voltage.
func receive(cell *device.Cell, in *waveform.PWL, cload float64, opt Options, stop func(t, vout float64) bool) (*waveform.PWL, error) {
	horizon := opt.Horizon
	if horizon == 0 {
		est := estimateHorizon(cell, 0, cload)
		horizon = in.End() + (est - InputStart)
	}
	c := nlsim.NewCircuit()
	inRef := c.Fixed("in", in)
	out := c.Node("out")
	c.AddCell(cell, "u", inRef, out)
	if cload > 0 {
		c.AddC(out, nlsim.Ground, cload)
	}
	nopt := nlsim.Options{TStop: horizon, Step: opt.step(horizon), Ctx: opt.Ctx}
	if stop != nil {
		nopt.Stop = func(t float64, x []float64) bool {
			v, err := nlsim.StateOf(c, x, out)
			return err == nil && stop(t, v)
		}
	}
	res, err := nlsim.Run(c, nopt)
	if err != nil {
		return nil, fmt.Errorf("gatesim: receiver sim failed: %w", err)
	}
	v, err := res.Voltage("out")
	if err != nil {
		return nil, err
	}
	opt.Steps.Add(int64(v.Len() - 1))
	return v, nil
}

// SwitchingThreshold returns the DC input voltage at which the cell's
// output crosses Vdd/2 — the static switching point that determines how
// deep an input noise pulse must dip to disturb the output.
func SwitchingThreshold(cell *device.Cell) (float64, error) {
	return SwitchingThresholdContext(context.Background(), cell)
}

// SwitchingThresholdContext is SwitchingThreshold with cancellation
// support for the DC bisection sweep.
func SwitchingThresholdContext(ctx context.Context, cell *device.Cell) (float64, error) {
	vdd := cell.Tech.Vdd
	outAt := func(vin float64) (float64, error) {
		c := nlsim.NewCircuit()
		in := c.Fixed("in", waveform.Constant(vin))
		out := c.Node("out")
		c.AddCell(cell, "u", in, out)
		x, err := nlsim.DCContext(ctx, c, 0, nil)
		if err != nil {
			return 0, err
		}
		return nlsim.StateOf(c, x, out)
	}
	lo, hi := 0.0, vdd
	vLo, err := outAt(lo)
	if err != nil {
		return 0, fmt.Errorf("gatesim: threshold sweep: %w", err)
	}
	vHi, err := outAt(hi)
	if err != nil {
		return 0, fmt.Errorf("gatesim: threshold sweep: %w", err)
	}
	if (vLo-vdd/2)*(vHi-vdd/2) > 0 {
		return 0, noiseerr.Numericalf("gatesim: %s output never crosses Vdd/2", cell.Name)
	}
	falling := vLo > vHi // inverting cell: output falls as input rises
	for i := 0; i < 40; i++ {
		mid := 0.5 * (lo + hi)
		v, err := outAt(mid)
		if err != nil {
			return 0, err
		}
		if (v > vdd/2) == falling {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// DriveNet simulates the cell driving the named node of a linear netlist
// (the full interconnect) and returns the voltage waveforms at the
// requested probe nodes plus the driver output node itself.
func DriveNet(cell *device.Cell, slew float64, inRising bool, nl *netlist.Circuit, outNode string, horizon, step float64, probes ...string) (map[string]*waveform.PWL, error) {
	return DriveNetContext(context.Background(), cell, slew, inRising, nl, outNode, horizon, step, probes...)
}

// DriveNetContext is DriveNet with cancellation support.
func DriveNetContext(ctx context.Context, cell *device.Cell, slew float64, inRising bool, nl *netlist.Circuit, outNode string, horizon, step float64, probes ...string) (map[string]*waveform.PWL, error) {
	tech := cell.Tech
	c := nlsim.NewCircuit()
	in := c.Fixed("in", Input(tech, slew, inRising))
	out := c.Node(outNode)
	c.ImportLinear(nl)
	c.AddCell(cell, "u", in, out)
	res, err := nlsim.Run(c, nlsim.Options{TStop: horizon, Step: step, Ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("gatesim: net sim failed: %w", err)
	}
	outMap := map[string]*waveform.PWL{}
	for _, p := range append([]string{outNode}, probes...) {
		v, err := res.Voltage(p)
		if err != nil {
			return nil, err
		}
		outMap[p] = v
	}
	return outMap, nil
}
