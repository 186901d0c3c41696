package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/noiseerr"
	"repro/internal/rcnet"
)

// DriverJSON is the serialized form of a delaynoise.DriverSpec (cells are
// referenced by library name).
type DriverJSON struct {
	Cell         string  `json:"cell"`
	InputSlew    float64 `json:"input_slew"`
	OutputRising bool    `json:"output_rising"`
	InputStart   float64 `json:"input_start"`
}

// CaseJSON is the serialized form of one analysis case.
type CaseJSON struct {
	Name         string            `json:"name"`
	Spec         rcnet.CoupledSpec `json:"interconnect"`
	Victim       DriverJSON        `json:"victim"`
	Aggressors   []DriverJSON      `json:"aggressors"`
	Receiver     string            `json:"receiver"`
	ReceiverLoad float64           `json:"receiver_load"`
	AggLoad      float64           `json:"agg_load,omitempty"`
}

// FileJSON is the on-disk container.
type FileJSON struct {
	Technology string     `json:"technology"`
	Cases      []CaseJSON `json:"cases"`
	// Paths optionally chains cases into multi-stage fabrics (see
	// PathJSON; stage entries name cases in Cases).
	Paths []PathJSON `json:"paths,omitempty"`
}

// FromCase converts an in-memory case to its serialized form.
func FromCase(name string, c *delaynoise.Case) CaseJSON {
	out := CaseJSON{
		Name:         name,
		Spec:         c.Net.Spec,
		Victim:       fromDriver(c.Victim),
		Receiver:     c.Receiver.Name,
		ReceiverLoad: c.ReceiverLoad,
		AggLoad:      c.AggLoad,
	}
	for _, a := range c.Aggressors {
		out.Aggressors = append(out.Aggressors, fromDriver(a))
	}
	return out
}

func fromDriver(d delaynoise.DriverSpec) DriverJSON {
	return DriverJSON{
		Cell:         d.Cell.Name,
		InputSlew:    d.InputSlew,
		OutputRising: d.OutputRising,
		InputStart:   d.InputStart,
	}
}

// ToCase resolves a serialized case against a cell library.
func (cj CaseJSON) ToCase(lib *device.Library) (*delaynoise.Case, error) {
	toDriver := func(d DriverJSON) (delaynoise.DriverSpec, error) {
		cell, err := lib.Cell(d.Cell)
		if err != nil {
			return delaynoise.DriverSpec{}, err
		}
		return delaynoise.DriverSpec{
			Cell:         cell,
			InputSlew:    d.InputSlew,
			OutputRising: d.OutputRising,
			InputStart:   d.InputStart,
		}, nil
	}
	victim, err := toDriver(cj.Victim)
	if err != nil {
		return nil, fmt.Errorf("workload: case %s victim: %w", cj.Name, err)
	}
	recv, err := lib.Cell(cj.Receiver)
	if err != nil {
		return nil, fmt.Errorf("workload: case %s receiver: %w", cj.Name, err)
	}
	// rcnet.Build panics on a spec it cannot build; refuse one here.
	if err := cj.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("workload: case %s: %w", cj.Name, err)
	}
	c := &delaynoise.Case{
		Net:          rcnet.Build(cj.Spec),
		Victim:       victim,
		Receiver:     recv,
		ReceiverLoad: cj.ReceiverLoad,
		AggLoad:      cj.AggLoad,
	}
	for i, a := range cj.Aggressors {
		d, err := toDriver(a)
		if err != nil {
			return nil, fmt.Errorf("workload: case %s aggressor %d: %w", cj.Name, i, err)
		}
		c.Aggressors = append(c.Aggressors, d)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("workload: case %s: %w", cj.Name, err)
	}
	return c, nil
}

// Save writes cases as indented JSON.
func Save(w io.Writer, techName string, names []string, cases []*delaynoise.Case) error {
	if len(names) != len(cases) {
		return noiseerr.Invalidf("workload: %d names for %d cases", len(names), len(cases))
	}
	f := FileJSON{Technology: techName}
	for i, c := range cases {
		f.Cases = append(f.Cases, FromCase(names[i], c))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Load parses a case file and resolves it against the library.
func Load(r io.Reader, lib *device.Library) ([]string, []*delaynoise.Case, error) {
	var f FileJSON
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("workload: decode: %w", err)
	}
	var names []string
	var cases []*delaynoise.Case
	for _, cj := range f.Cases {
		c, err := cj.ToCase(lib)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, cj.Name)
		cases = append(cases, c)
	}
	return names, cases, nil
}
