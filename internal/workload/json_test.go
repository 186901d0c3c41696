package workload

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/noiseerr"
	"repro/internal/rcnet"
)

func TestJSONRoundTrip(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	gen := NewGenerator(lib, DefaultProfile(), 5)
	cases, err := gen.Population(3)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"n0", "n1", "n2"}
	var buf bytes.Buffer
	if err := Save(&buf, "generic-180nm", names, cases); err != nil {
		t.Fatal(err)
	}
	names2, cases2, err := Load(&buf, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases2) != 3 || names2[2] != "n2" {
		t.Fatalf("round trip lost cases: %v", names2)
	}
	for i := range cases {
		a, b := cases[i], cases2[i]
		if a.Victim.Cell.Name != b.Victim.Cell.Name ||
			a.Victim.InputSlew != b.Victim.InputSlew ||
			a.Victim.OutputRising != b.Victim.OutputRising ||
			a.ReceiverLoad != b.ReceiverLoad ||
			len(a.Aggressors) != len(b.Aggressors) {
			t.Fatalf("case %d changed in round trip", i)
		}
		if a.Net.VictimTotalCap() != b.Net.VictimTotalCap() {
			t.Fatalf("case %d interconnect changed", i)
		}
		for k := range a.Aggressors {
			if a.Aggressors[k].Cell.Name != b.Aggressors[k].Cell.Name ||
				a.Aggressors[k].InputStart != b.Aggressors[k].InputStart {
				t.Fatalf("case %d aggressor %d changed", i, k)
			}
		}
	}
}

func TestSaveValidation(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	gen := NewGenerator(lib, DefaultProfile(), 5)
	cases, _ := gen.Population(2)
	var buf bytes.Buffer
	if err := Save(&buf, "t", []string{"only-one"}, cases); err == nil {
		t.Fatal("expected error for name/case count mismatch")
	}
}

func TestLoadErrors(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	if _, _, err := Load(strings.NewReader("not json"), lib); err == nil {
		t.Fatal("expected decode error")
	}
	// Unknown cell name.
	bad := `{"technology":"t","cases":[{"name":"x","interconnect":{"Victim":{"Name":"v","Segments":2,"RTotal":100,"CGround":1e-14},"Aggressors":[{"Line":{"Name":"a","Segments":2,"RTotal":100,"CGround":1e-14},"CCouple":1e-14,"From":0,"To":1}]},"victim":{"cell":"NOPE","input_slew":1e-10,"output_rising":true,"input_start":1e-10},"aggressors":[{"cell":"INVX1","input_slew":1e-10,"output_rising":false,"input_start":1e-10}],"receiver":"INVX1","receiver_load":1e-14}]}`
	if _, _, err := Load(strings.NewReader(bad), lib); err == nil {
		t.Fatal("expected error for unknown victim cell")
	}
}

func TestFromCaseFields(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	gen := NewGenerator(lib, DefaultProfile(), 6)
	c, err := gen.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	cj := FromCase("mynet", c)
	if cj.Name != "mynet" || cj.Receiver != c.Receiver.Name {
		t.Fatalf("FromCase fields wrong: %+v", cj)
	}
	if len(cj.Aggressors) != len(c.Aggressors) {
		t.Fatal("aggressor count changed")
	}
	back, err := cj.ToCase(lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestToCaseRejectsUnbuildableSpec: a spec rcnet.Build would panic on
// comes back as an ErrInvalidCase error instead.
func TestToCaseRejectsUnbuildableSpec(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	c, err := NewGenerator(lib, DefaultProfile(), 5).Next(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*CaseJSON){
		"zero victim segments":      func(cj *CaseJSON) { cj.Spec.Victim.Segments = 0 },
		"zero aggressor segments":   func(cj *CaseJSON) { cj.Spec.Aggressors[0].Line.Segments = 0 },
		"empty coupling span":       func(cj *CaseJSON) { cj.Spec.Aggressors[0].From = cj.Spec.Aggressors[0].To },
		"negative coupling start":   func(cj *CaseJSON) { cj.Spec.Aggressors[0].From = -0.1 },
		"coupling past the far end": func(cj *CaseJSON) { cj.Spec.Aggressors[0].To = 1.01 },
		"NaN coupling end":          func(cj *CaseJSON) { cj.Spec.Aggressors[0].To = math.NaN() },
	} {
		cj := FromCase("n0", c)
		cj.Spec.Aggressors = append([]rcnet.AggressorSpec(nil), cj.Spec.Aggressors...)
		edit(&cj)
		if _, err := cj.ToCase(lib); !errors.Is(err, noiseerr.ErrInvalidCase) {
			t.Errorf("%s: err %v, want ErrInvalidCase", name, err)
		}
	}
}
