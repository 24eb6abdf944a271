package hw

import "testing"

// fuzzTextRoundTrip checks one command-line enum parser on one input:
// parsing never panics, and a value it accepts marshals to a spelling
// that parses back to the same value.
func fuzzTextRoundTrip[T comparable](t *testing.T, s string, parse func(string) (T, error), marshal func(T) ([]byte, error)) {
	v, err := parse(s)
	if err != nil {
		return
	}
	text, err := marshal(v)
	if err != nil {
		t.Fatalf("%q parsed to %v, which does not marshal: %v", s, v, err)
	}
	back, err := parse(string(text))
	if err != nil || back != v {
		t.Fatalf("%q parsed to %v, marshaled as %q, parsed back to %v (err %v)", s, v, text, back, err)
	}
}

func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		fuzzTextRoundTrip(t, s, ParseTopology, Topology.MarshalText)
	})
}

func FuzzParseMemProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		fuzzTextRoundTrip(t, s, ParseMemProfile, MemProfile.MarshalText)
	})
}

func FuzzParseNetworkProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		fuzzTextRoundTrip(t, s, ParseNetworkProfile, NetworkProfile.MarshalText)
	})
}
