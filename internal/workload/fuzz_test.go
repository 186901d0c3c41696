package workload

import (
	"bytes"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/device"
)

// FuzzLoadCases throws arbitrary bodies at the case-file decoders. A
// workload file arrives over the wire (noised, noisegw) and from disk,
// so Load and LoadPaths must refuse anything ToCase or Validate cannot
// accept with an error, never a panic. Every case they do return must
// pass Validate, and every path must reference returned cases only.
// The committed corpus under testdata/fuzz seeds netgen net and path
// files and the hostile bodies the serving tests reject ("segments": 0
// among them).
func FuzzLoadCases(f *testing.F) {
	lib := device.NewLibrary(device.Default180())
	f.Fuzz(func(t *testing.T, body []byte) {
		names, cases, err := Load(bytes.NewReader(body), lib)
		if err == nil {
			checkLoaded(t, names, cases)
		}
		names, cases, paths, err := LoadPaths(bytes.NewReader(body), lib)
		if err != nil {
			return
		}
		checkLoaded(t, names, cases)
		known := make(map[string]bool, len(names))
		for _, n := range names {
			known[n] = true
		}
		for _, p := range paths {
			for _, st := range p.Stages {
				if !known[st.Net] || st.Case == nil {
					t.Fatalf("path %s stage %q does not resolve to a loaded case", p.Name, st.Net)
				}
			}
		}
	})
}

func checkLoaded(t *testing.T, names []string, cases []*delaynoise.Case) {
	t.Helper()
	if len(names) != len(cases) {
		t.Fatalf("%d names for %d cases", len(names), len(cases))
	}
	for i, c := range cases {
		if err := c.Validate(); err != nil {
			t.Fatalf("case %s loaded but fails Validate: %v", names[i], err)
		}
	}
}
