package queuesim

import (
	"encoding/json"
	"testing"
)

// FuzzGraphSpec: any JSON handed to the GraphSpec boundary either
// fails (unmarshal, Validate, or a RunTail config error) or runs a
// short load point in CPU and in RPU mode that conserves requests —
// never a panic or a hang. A per-try timeout bounds every request's
// lifetime whatever the spec's demands, so the fixed drain always
// suffices for every measured arrival to resolve. The seed corpus is
// the bundled graphs.
func FuzzGraphSpec(f *testing.F) {
	for _, name := range GraphNames() {
		spec, err := GraphByName(name, DefaultConfig())
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var g GraphSpec
		if json.Unmarshal(raw, &g) != nil || g.Validate() != nil {
			return
		}
		for _, mode := range []struct {
			label string
			rpu   bool
		}{{"cpu", false}, {"rpu", true}} {
			c := DefaultConfig()
			c.QPS = 2000
			c.Seconds = 0.1
			c.Warmup = 0
			c.Drain = 1
			c.RPU, c.Split = mode.rpu, mode.rpu
			m, err := RunTail(TailConfig{Config: c, Scale: 1, Graph: &g,
				Policy: PolicyConfig{TimeoutMs: 50}})
			if err != nil {
				continue
			}
			checkConservation(t, m, g.Name+"/"+mode.label)
		}
	})
}
