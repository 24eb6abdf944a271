package main

import (
	"flag"
	"strings"
	"testing"
)

// Every name in the studies table must be a defined flag, every study
// selector a bool flag, and every defined flag read by at least one
// study: a typo in the string table would otherwise reject a valid
// flag or leave one unchecked.
func TestStudyTableMatchesFlags(t *testing.T) {
	read := map[string]bool{}
	for _, name := range shared {
		read[name] = true
	}
	for _, s := range studies {
		if s.flag != "" {
			f := flag.Lookup(s.flag)
			if f == nil {
				t.Errorf("study flag -%s is not defined", s.flag)
				continue
			}
			if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() {
				t.Errorf("study flag -%s is not a bool flag", s.flag)
			}
			read[s.flag] = true
		}
		for _, name := range s.reads {
			read[name] = true
		}
	}
	for name := range read {
		if flag.Lookup(name) == nil {
			t.Errorf("studies table names -%s, which is not a defined flag", name)
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		// The testing package registers its own test.* flags here.
		if !read[f.Name] && !strings.HasPrefix(f.Name, "test.") {
			t.Errorf("flag -%s is read by no study", f.Name)
		}
	})
}

// choose selects one study per command line and rejects a second
// study flag or any set flag the chosen study does not read, naming
// the offending flag.
func TestChooseStudy(t *testing.T) {
	cases := []struct {
		args []string
		want string // chosen study flag on success
		err  string // substring of the error; empty = accepted
	}{
		{args: nil, want: ""},
		{args: []string{"-model", "scaled", "-mode", "prompt", "-chips", "64", "-plan", "prefill=ring,decode=tree"}, want: ""},
		{args: []string{"-model", "tinyllama", "-chips", "8", "-fault", "slow:0-1x10"}, want: ""},
		{args: []string{"-model", "scaled", "-mode", "prompt", "-chips", "8,16,64", "-autotune"}, want: "autotune"},
		{args: []string{"-chips", "64", "-autotune-session", "-topk", "16", "-network", "clustered", "-cluster", "4", "-backhaul", "10"}, want: "autotune-session"},
		{args: []string{"-model", "edgellama", "-chips", "8", "-mem", "dram", "-autotune-tiling"}, want: "autotune-tiling"},
		{args: []string{"-chips", "8,64", "-replan", "-fault", "drop:3"}, want: "replan"},
		{args: []string{"-fleet", "-chips", "8", "-fault", "drop:3", "-fault-at", "2", "-fault-replan"}, want: "fleet"},
		{args: []string{"-fleet", "-chips", "64", "-groups", "2", "-rates", "50,200,800", "-requests", "1000", "-workers", "8", "-fleet-serial", "-cache-dir", "d"}, want: "fleet"},
		{args: []string{"-autotune=false", "-chips", "2"}, want: ""},
		{args: []string{"-fleet", "-chips", "8", "-network", "clustered"}, err: "-network is not read by -fleet"},
		{args: []string{"-fleet", "-chips", "8", "-plan", "prefill=ring"}, err: "-plan is not read by -fleet"},
		{args: []string{"-autotune", "-chips", "8", "-plan", "prefill=ring"}, err: "-plan is not read by -autotune"},
		{args: []string{"-autotune-session", "-mode", "prompt"}, err: "-mode is not read by -autotune-session"},
		{args: []string{"-autotune-tiling", "-mem", "dram", "-tile", "32x256"}, err: "-tile is not read by -autotune-tiling"},
		{args: []string{"-autotune", "-fault", "drop:3"}, err: "-fault is not read by -autotune"},
		{args: []string{"-fault-at", "3"}, err: "-fault-at is not read by the plain sweep"},
		{args: []string{"-autotune", "-autotune-session"}, err: "-autotune and -autotune-session are both set"},
		{args: []string{"-replan", "-fault", "drop:3", "-fleet"}, err: "-fleet and -replan are both set"},
	}
	for _, c := range cases {
		// A fresh set over the same flag values: Visit then sees only
		// what this case set.
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		flag.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		st, err := choose(fs)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v rejected: %v", c.args, err)
		case c.err == "" && st.flag != c.want:
			t.Errorf("%v chose %s, want -%s", c.args, st, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: error %v, want %q", c.args, err, c.err)
		}
	}
}
