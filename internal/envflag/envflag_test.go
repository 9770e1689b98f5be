package envflag

import (
	"flag"
	"io"
	"strings"
	"testing"

	"simr/internal/core"
	"simr/internal/sample"
)

func TestFlags(t *testing.T) {
	all := Parallel | Lookahead | Sample
	def := core.Env{Lookahead: core.PrepAuto}
	cases := []struct {
		which Set
		args  []string
		want  core.Env
		bad   string // substring of the parse error, "" if accepted
	}{
		{all, nil, def, ""},
		{all, []string{"-parallel", "3", "-lookahead", "0", "-sample", "4"},
			core.Env{Workers: 3, Sample: sample.Config{Period: 4, Warmup: 1}}, ""},
		{all, []string{"-lookahead", "-1", "-sample", "8:3"},
			core.Env{Lookahead: core.PrepAuto, Sample: sample.Config{Period: 8, Warmup: 3}}, ""},
		{all, []string{"-sample", "off"}, def, ""},
		{all, []string{"-parallel", "-3"}, def, `"-3" for flag -parallel: want 0`},
		{all, []string{"-parallel", "two"}, def, "-parallel: not an integer"},
		{all, []string{"-lookahead", "-2"}, def, `"-2" for flag -lookahead: want -1`},
		{all, []string{"-sample", "4:x"}, def, "for flag -sample: sample: bad warmup"},
		{all, []string{"-sample", "-1"}, def, "for flag -sample: sample: bad period"},
		{Parallel, []string{"-parallel", "2"}, core.Env{Workers: 2, Lookahead: core.PrepAuto}, ""},
		{Parallel, []string{"-sample", "4"}, def, "not defined: -sample"},
		{Lookahead | Sample, []string{"-parallel", "2"}, def, "not defined: -parallel"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("driver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Add(fs, c.which)
		err := fs.Parse(c.args)
		if c.bad != "" {
			if err == nil || !strings.Contains(err.Error(), c.bad) {
				t.Errorf("%q: error %v, want one containing %q", c.args, err, c.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q rejected: %v", c.args, err)
			continue
		}
		env, stop := f.Env()
		stop()
		if env.Ctx == nil {
			t.Errorf("%q: Env has no context", c.args)
		}
		env.Ctx = nil
		if env != c.want {
			t.Errorf("%q: Env %+v, want %+v", c.args, env, c.want)
		}
	}
}
