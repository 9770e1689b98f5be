// Declarative service graphs for the tail-at-scale engine. A GraphSpec
// describes a microservice scenario as data — stations with service
// demands and capacity multipliers, request stages wired by sync/async
// fan-out edges, an optional RPU batch path with a formation point and
// hit/miss divergence — and the generic executor in exec.go walks the
// compiled form instead of a hand-coded dispatch switch. The social
// and compose-post graphs that used to be Go code are now specs (the
// social spec byte-identical to the retired dispatch, see
// graph_test.go), and new DeathStarBench-style scenarios
// (hotel-reservation, media-service, IoT/edge) are just more specs,
// loadable from JSON.
package queuesim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Reserved edge targets: "done" resolves the request (or completes the
// batch), "join" ends a fan-out leg.
const (
	edgeDone = "done"
	edgeJoin = "join"
)

// Compiled sentinels for the reserved targets.
const (
	cgDone int32 = -1
	cgJoin int32 = -2
)

// GraphSpec is a declarative service graph. Stage and station names
// are separate namespaces; "done" and "join" are reserved edge
// targets. Validate (or LoadGraph) reports structural errors instead
// of panicking at run time.
type GraphSpec struct {
	Name string `json:"name"`
	// Entry names the request stage every arrival enters first.
	Entry    string        `json:"entry"`
	Stations []StationSpec `json:"stations"`
	// Coins are per-request Bernoulli draws (hit/miss divergences).
	// Every request draws all coins once at issue time, in declaration
	// order; edges and batch divergences reference them by name.
	Coins  []CoinSpec  `json:"coins,omitempty"`
	Stages []StageSpec `json:"stages"`
	// Batch describes the RPU batch path; nil graphs run CPU-only.
	Batch *BatchSpec `json:"batch,omitempty"`
	// NetHopMs overrides Config.NetHop as the wire delay of hop edges
	// when positive.
	NetHopMs float64 `json:"net_hop_ms,omitempty"`
	// UtilStation names the station whose utilisation is reported as
	// TailMetrics.UserUtil; empty defaults to the first BatchTier
	// station, else the first station.
	UtilStation string `json:"util_station,omitempty"`
}

// StationSpec declares a multi-server FIFO station. Server count is
// Cores×CoresMul×Scale (×5 in RPU mode); a BatchTier station instead
// gets ceil(Cores×CoresMul×5×1.2/BatchSize×Scale) servers in RPU mode
// (whole batches occupy a server); Infinite stations are pure delay.
type StationSpec struct {
	Name      string  `json:"name"`
	CoresMul  float64 `json:"cores_mul,omitempty"` // default 1
	BatchTier bool    `json:"batch_tier,omitempty"`
	Infinite  bool    `json:"infinite,omitempty"`
}

// CoinSpec is one per-request Bernoulli draw: Prob is the probability
// the coin lands "hit".
type CoinSpec struct {
	Name string  `json:"name"`
	Prob float64 `json:"prob"`
}

// StageSpec is one request-pipeline stage: service at Station for
// ~DemandMs (jittered ±20% and scaled by the RPU latency multiplier
// unless Fixed), then Next edges. A stage with Fanout edges spawns one
// leg per edge after service; sync legs must reach "join", and the
// stage's Next edges fire when the last sync leg joins.
type StageSpec struct {
	Name     string  `json:"name"`
	Station  string  `json:"station"`
	DemandMs float64 `json:"demand_ms"`
	// Fixed uses DemandMs verbatim: no jitter, no RPU latency
	// multiplier (the storage-latency model).
	Fixed  bool       `json:"fixed,omitempty"`
	Next   []EdgeSpec `json:"next,omitempty"`
	Fanout []EdgeSpec `json:"fanout,omitempty"`
}

// EdgeSpec is one transition. Hop inserts a network-hop delay; a
// non-hop edge enters the target directly. Coin conditions the edge:
// "name" takes it when the coin hit, "!name" when it missed; the last
// Next edge must be unconditional. Async marks a fan-out leg as
// fire-and-forget: it never joins and the parent does not wait for it.
type EdgeSpec struct {
	To    string `json:"to"`
	Hop   bool   `json:"hop,omitempty"`
	Coin  string `json:"coin,omitempty"`
	Async bool   `json:"async,omitempty"`
}

// BatchSpec is the RPU batch path: requests completing FormAfter join
// the forming batch (width Config.BatchSize, per-batch timeout
// Config.BatchTimeout), and launched batches enter Entry (crossing a
// network hop first when EntryHop).
type BatchSpec struct {
	FormAfter string           `json:"form_after"`
	Entry     string           `json:"entry"`
	EntryHop  bool             `json:"entry_hop,omitempty"`
	Stages    []BatchStageSpec `json:"stages"`
}

// BatchStageSpec is one batch-pipeline stage. HoldMs adds a fixed
// on-core occupancy on top of the service demand (the reconvergence
// wait of an unsplit batch). Diverge replaces Next: after service the
// batch splits on a per-member coin.
type BatchStageSpec struct {
	Name     string       `json:"name"`
	Station  string       `json:"station"`
	DemandMs float64      `json:"demand_ms"`
	Fixed    bool         `json:"fixed,omitempty"`
	HoldMs   float64      `json:"hold_ms,omitempty"`
	Diverge  *DivergeSpec `json:"diverge,omitempty"`
	Next     []EdgeSpec   `json:"next,omitempty"`
	Fanout   []EdgeSpec   `json:"fanout,omitempty"`
}

// DivergeSpec routes a batch after a per-member hit/miss divergence:
// an all-hit batch follows Hit; with Split enabled, miss members
// follow Miss as a sub-batch (all-miss batches follow it whole) while
// hits follow Hit; with Split disabled the whole batch follows Hold
// when any member missed (or Miss, when Hold is nil).
type DivergeSpec struct {
	Coin string    `json:"coin"`
	Hit  EdgeSpec  `json:"hit"`
	Miss EdgeSpec  `json:"miss"`
	Hold *EdgeSpec `json:"hold,omitempty"`
}

// Validate reports the first structural error in the spec: unknown
// station/stage references, dangling or conditional-final edges,
// cycles, unreachable stages, invalid probabilities, malformed batch
// paths. A nil error means the graph compiles and can run.
func (g *GraphSpec) Validate() error {
	_, err := compileGraph(g)
	return err
}

// LoadGraph reads and validates a GraphSpec from a JSON file.
func LoadGraph(path string) (*GraphSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g GraphSpec
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: not a graph spec: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// GraphNames lists the bundled graphs in report order.
func GraphNames() []string {
	return []string{"social", "composepost", "hotel", "media", "iot"}
}

// GraphByName returns a bundled graph spec. cfg supplies the social
// graph's demands and hit rate; the other scenarios carry their own
// calibrated demands.
func GraphByName(name string, cfg Config) (*GraphSpec, error) {
	switch name {
	case "social":
		return SocialGraph(cfg), nil
	case "composepost":
		return ComposePostGraph(DefaultComposePost()), nil
	case "hotel":
		return HotelGraph(), nil
	case "media":
		return MediaGraph(), nil
	case "iot":
		return IoTGraph(), nil
	}
	return nil, fmt.Errorf("queuesim: unknown graph %q (bundled: %v, or a .json file)", name, GraphNames())
}

// --- compiled form ---

// cedge is a compiled edge: to is a stage index or a cg* sentinel,
// coin is -1 for unconditional edges or a coin index with the required
// outcome in want.
type cedge struct {
	to    int32
	coin  int8
	want  bool
	hop   bool
	async bool
}

// taken reports whether the edge's coin condition holds for a
// request's draws.
func (ed *cedge) taken(coins uint16) bool {
	return ed.coin < 0 || (coins>>uint8(ed.coin)&1 == 1) == ed.want
}

// pickEdge returns the first edge whose condition matches; compile
// guarantees the final edge is unconditional.
func pickEdge(edges []cedge, coins uint16) *cedge {
	for i := range edges {
		if edges[i].taken(coins) {
			return &edges[i]
		}
	}
	return &edges[len(edges)-1]
}

type cstation struct {
	name      string
	coresMul  float64
	batchTier bool
	infinite  bool
	batched   bool // referenced by a batch stage: serves batches in RPU mode
}

type cstage struct {
	station int32
	demand  float64
	fixed   bool
	next    []cedge
	fanout  []cedge
}

type cbstage struct {
	station int32
	demand  float64
	fixed   bool
	hold    float64
	div     *cbdiv
	next    []cedge
	fanout  []cedge
}

type cbdiv struct {
	coin    uint8
	hit     cedge
	miss    cedge
	hold    cedge
	hasHold bool
}

type cgraph struct {
	name        string
	netHop      float64 // 0 = use Config.NetHop
	stations    []cstation
	coins       []float64
	stages      []cstage
	bstages     []cbstage
	entry       int32
	utilStation int32
	hasBatch    bool
	formAfter   int32
	bentry      int32
	bentryHop   bool
}

// compileGraph validates a spec and resolves it to index-addressed
// tables the executor walks.
func compileGraph(g *GraphSpec) (*cgraph, error) {
	fail := func(format string, a ...any) (*cgraph, error) {
		return nil, fmt.Errorf("graph %q: %s", g.Name, fmt.Sprintf(format, a...))
	}
	if len(g.Stages) == 0 {
		return fail("empty graph: no stages")
	}
	if len(g.Stations) == 0 {
		return fail("empty graph: no stations")
	}
	if len(g.Stages) > 100 || (g.Batch != nil && len(g.Batch.Stages) > 100) {
		return fail("too many stages (max 100)")
	}
	if len(g.Coins) > 16 {
		return fail("too many coins (max 16)")
	}

	c := &cgraph{name: g.Name, netHop: g.NetHopMs, utilStation: -1}

	stations := map[string]int32{}
	for i, s := range g.Stations {
		if s.Name == "" {
			return fail("station %d has no name", i)
		}
		if _, dup := stations[s.Name]; dup {
			return fail("duplicate station %q", s.Name)
		}
		mul := s.CoresMul
		if mul == 0 {
			mul = 1
		}
		if mul < 0 || math.IsNaN(mul) || math.IsInf(mul, 0) {
			return fail("station %q: cores_mul %v", s.Name, s.CoresMul)
		}
		stations[s.Name] = int32(i)
		c.stations = append(c.stations, cstation{
			name: s.Name, coresMul: mul, batchTier: s.BatchTier, infinite: s.Infinite})
		if s.BatchTier && c.utilStation < 0 {
			c.utilStation = int32(i)
		}
	}
	if c.utilStation < 0 {
		c.utilStation = 0
	}
	if g.UtilStation != "" {
		si, ok := stations[g.UtilStation]
		if !ok {
			return fail("util_station %q is not a station", g.UtilStation)
		}
		c.utilStation = si
	}

	coins := map[string]int8{}
	for i, cs := range g.Coins {
		if cs.Name == "" {
			return fail("coin %d has no name", i)
		}
		if _, dup := coins[cs.Name]; dup {
			return fail("duplicate coin %q", cs.Name)
		}
		if cs.Prob < 0 || cs.Prob > 1 || math.IsNaN(cs.Prob) {
			return fail("coin %q: probability %v outside [0,1]", cs.Name, cs.Prob)
		}
		coins[cs.Name] = int8(i)
		c.coins = append(c.coins, cs.Prob)
	}

	// compileEdge resolves one edge against a stage namespace.
	compileEdge := func(where string, e EdgeSpec, idx map[string]int32, allowJoin bool) (cedge, error) {
		ce := cedge{coin: -1, hop: e.Hop, async: e.Async}
		switch e.To {
		case "":
			return ce, fmt.Errorf("graph %q: %s: edge with no target", g.Name, where)
		case edgeDone:
			ce.to = cgDone
		case edgeJoin:
			if !allowJoin {
				return ce, fmt.Errorf("graph %q: %s: %q outside a fan-out leg", g.Name, where, edgeJoin)
			}
			ce.to = cgJoin
		default:
			to, ok := idx[e.To]
			if !ok {
				return ce, fmt.Errorf("graph %q: %s: edge to unknown stage %q", g.Name, where, e.To)
			}
			ce.to = to
		}
		if e.Coin != "" {
			name, want := e.Coin, true
			if name[0] == '!' {
				name, want = name[1:], false
			}
			ci, ok := coins[name]
			if !ok {
				return ce, fmt.Errorf("graph %q: %s: unknown coin %q", g.Name, where, e.Coin)
			}
			ce.coin, ce.want = ci, want
		}
		return ce, nil
	}

	// Request stages.
	stageIdx := map[string]int32{}
	for i, s := range g.Stages {
		if s.Name == "" || s.Name == edgeDone || s.Name == edgeJoin {
			return fail("stage %d: invalid name %q", i, s.Name)
		}
		if _, dup := stageIdx[s.Name]; dup {
			return fail("duplicate stage %q", s.Name)
		}
		stageIdx[s.Name] = int32(i)
	}
	for _, s := range g.Stages {
		si, ok := stations[s.Station]
		if !ok {
			return fail("stage %q: unknown station %q", s.Name, s.Station)
		}
		if s.DemandMs < 0 || math.IsNaN(s.DemandMs) || math.IsInf(s.DemandMs, 0) {
			return fail("stage %q: demand %v", s.Name, s.DemandMs)
		}
		cs := cstage{station: si, demand: s.DemandMs, fixed: s.Fixed}
		if len(s.Next) == 0 {
			return fail("stage %q has no next edges", s.Name)
		}
		for j, e := range s.Next {
			ce, err := compileEdge(fmt.Sprintf("stage %q", s.Name), e, stageIdx, true)
			if err != nil {
				return nil, err
			}
			if j == len(s.Next)-1 && ce.coin >= 0 {
				return fail("stage %q: final next edge must be unconditional", s.Name)
			}
			if ce.async {
				return fail("stage %q: async is only valid on fan-out edges", s.Name)
			}
			cs.next = append(cs.next, ce)
		}
		for _, e := range s.Fanout {
			ce, err := compileEdge(fmt.Sprintf("stage %q fan-out", s.Name), e, stageIdx, false)
			if err != nil {
				return nil, err
			}
			if ce.to < 0 {
				return fail("stage %q: fan-out edge must target a stage", s.Name)
			}
			cs.fanout = append(cs.fanout, ce)
		}
		c.stages = append(c.stages, cs)
	}
	entry, ok := stageIdx[g.Entry]
	if !ok {
		return fail("entry %q is not a stage", g.Entry)
	}
	c.entry = entry

	if err := checkTopology(g.Name, "stage", stageNames(g), c.stages2topo(), entry); err != nil {
		return nil, err
	}

	// Batch path.
	if g.Batch != nil {
		b := g.Batch
		c.hasBatch = true
		c.bentryHop = b.EntryHop
		fa, ok := stageIdx[b.FormAfter]
		if !ok {
			return fail("batch form_after %q is not a request stage", b.FormAfter)
		}
		if len(g.Stages[fa].Fanout) > 0 {
			return fail("batch form_after %q cannot be a fan-out stage", b.FormAfter)
		}
		c.formAfter = fa
		if len(b.Stages) == 0 {
			return fail("batch path has no stages")
		}
		bIdx := map[string]int32{}
		for i, s := range b.Stages {
			if s.Name == "" || s.Name == edgeDone || s.Name == edgeJoin {
				return fail("batch stage %d: invalid name %q", i, s.Name)
			}
			if _, dup := bIdx[s.Name]; dup {
				return fail("duplicate batch stage %q", s.Name)
			}
			bIdx[s.Name] = int32(i)
		}
		for _, s := range b.Stages {
			si, ok := stations[s.Station]
			if !ok {
				return fail("batch stage %q: unknown station %q", s.Name, s.Station)
			}
			if s.DemandMs < 0 || s.HoldMs < 0 || math.IsNaN(s.DemandMs+s.HoldMs) {
				return fail("batch stage %q: demand %v hold %v", s.Name, s.DemandMs, s.HoldMs)
			}
			c.stations[si].batched = true
			bs := cbstage{station: si, demand: s.DemandMs, fixed: s.Fixed, hold: s.HoldMs}
			where := fmt.Sprintf("batch stage %q", s.Name)
			if s.Diverge != nil {
				if len(s.Next) > 0 || len(s.Fanout) > 0 {
					return fail("batch stage %q: diverge excludes next/fanout edges", s.Name)
				}
				ci, ok := coins[s.Diverge.Coin]
				if !ok {
					return fail("batch stage %q: diverge on unknown coin %q", s.Name, s.Diverge.Coin)
				}
				dv := &cbdiv{coin: uint8(ci)}
				for _, leg := range []struct {
					label string
					e     *EdgeSpec
					dst   *cedge
				}{{"hit", &s.Diverge.Hit, &dv.hit}, {"miss", &s.Diverge.Miss, &dv.miss}, {"hold", s.Diverge.Hold, &dv.hold}} {
					if leg.e == nil {
						continue
					}
					ce, err := compileEdge(where+" diverge "+leg.label, *leg.e, bIdx, false)
					if err != nil {
						return nil, err
					}
					if ce.coin >= 0 || ce.async {
						return fail("batch stage %q: diverge %s edge must be plain", s.Name, leg.label)
					}
					*leg.dst = ce
					if leg.label == "hold" {
						dv.hasHold = true
					}
				}
				bs.div = dv
			} else {
				if len(s.Next) == 0 {
					return fail("batch stage %q has no next edges", s.Name)
				}
				for _, e := range s.Next {
					ce, err := compileEdge(where, e, bIdx, true)
					if err != nil {
						return nil, err
					}
					if ce.coin >= 0 {
						return fail("batch stage %q: next edges cannot carry coins (use diverge)", s.Name)
					}
					if ce.async {
						return fail("batch stage %q: async is only valid on fan-out edges", s.Name)
					}
					bs.next = append(bs.next, ce)
				}
				for _, e := range s.Fanout {
					ce, err := compileEdge(where+" fan-out", e, bIdx, false)
					if err != nil {
						return nil, err
					}
					if ce.to < 0 || ce.coin >= 0 {
						return fail("batch stage %q: fan-out edge must target a stage unconditionally", s.Name)
					}
					bs.fanout = append(bs.fanout, ce)
				}
			}
			c.bstages = append(c.bstages, bs)
		}
		be, ok := bIdx[b.Entry]
		if !ok {
			return fail("batch entry %q is not a batch stage", b.Entry)
		}
		c.bentry = be
		if err := checkTopology(g.Name, "batch stage", bstageNames(b), c.bstages2topo(), be); err != nil {
			return nil, err
		}
		// Stations requests reach before the formation point serve
		// requests even in RPU mode and must not also serve batches.
		for _, si := range c.preFormStations() {
			if c.stations[si].batched {
				return fail("station %q serves batches but request stage(s) before batch formation use it",
					c.stations[si].name)
			}
		}
	} else {
		c.formAfter = -1
		c.bentry = -1
	}
	return c, nil
}

func stageNames(g *GraphSpec) []string {
	names := make([]string, len(g.Stages))
	for i, s := range g.Stages {
		names[i] = s.Name
	}
	return names
}

func bstageNames(b *BatchSpec) []string {
	names := make([]string, len(b.Stages))
	for i, s := range b.Stages {
		names[i] = s.Name
	}
	return names
}

// topoNode is the edge view checkTopology walks: next edges, fan-out
// edges, and (for batch stages) the divergence edges.
type topoNode struct {
	next   []cedge
	fanout []cedge
}

func (c *cgraph) stages2topo() []topoNode {
	out := make([]topoNode, len(c.stages))
	for i, s := range c.stages {
		out[i] = topoNode{next: s.next, fanout: s.fanout}
	}
	return out
}

func (c *cgraph) bstages2topo() []topoNode {
	out := make([]topoNode, len(c.bstages))
	for i, s := range c.bstages {
		n := topoNode{next: s.next, fanout: s.fanout}
		if s.div != nil {
			n.next = append([]cedge{s.div.hit, s.div.miss}, n.next...)
			if s.div.hasHold {
				n.next = append(n.next, s.div.hold)
			}
		}
		out[i] = n
	}
	return out
}

// checkTopology enforces the structural invariants shared by the
// request and batch pipelines: the stage graph is acyclic, every stage
// is reachable from the entry, the main chain never targets "join",
// fan-out legs never target "done" or fan out again, and no stage is
// shared between the main chain and a leg.
func checkTopology(graph, kind string, names []string, nodes []topoNode, entry int32) error {
	fail := func(format string, a ...any) error {
		return fmt.Errorf("graph %q: %s", graph, fmt.Sprintf(format, a...))
	}
	// Cycle check over all edges (tri-colour DFS).
	const (
		white = iota
		grey
		black
	)
	colour := make([]int, len(nodes))
	var visit func(int32) error
	visit = func(i int32) error {
		colour[i] = grey
		for _, edges := range [][]cedge{nodes[i].next, nodes[i].fanout} {
			for _, e := range edges {
				if e.to < 0 {
					continue
				}
				switch colour[e.to] {
				case grey:
					return fail("cycle through %s %q", kind, names[e.to])
				case white:
					if err := visit(e.to); err != nil {
						return err
					}
				}
			}
		}
		colour[i] = black
		return nil
	}
	for i := range nodes {
		if colour[i] == white {
			if err := visit(int32(i)); err != nil {
				return err
			}
		}
	}

	// Main chain: BFS from entry over next edges only.
	main := make([]bool, len(nodes))
	queue := []int32{entry}
	main[entry] = true
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, e := range nodes[i].next {
			if e.to == cgJoin {
				return fail("%s %q: %q outside a fan-out leg", kind, names[i], edgeJoin)
			}
			if e.to >= 0 && !main[e.to] {
				main[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}

	// Legs: BFS from every fan-out target of a main-chain stage.
	leg := make([]bool, len(nodes))
	for i := range nodes {
		if !main[i] {
			continue
		}
		for _, e := range nodes[i].fanout {
			if e.to >= 0 && !leg[e.to] {
				leg[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if main[i] {
			return fail("%s %q shared between the main path and a fan-out leg", kind, names[i])
		}
		if len(nodes[i].fanout) > 0 {
			return fail("%s %q: nested fan-out", kind, names[i])
		}
		for _, e := range nodes[i].next {
			if e.to == cgDone {
				return fail("%s %q: fan-out leg cannot target %q (use %q)", kind, names[i], edgeDone, edgeJoin)
			}
			if e.to >= 0 && !leg[e.to] {
				leg[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}

	for i := range nodes {
		if !main[i] && !leg[i] {
			return fail("%s %q unreachable from the entry", kind, names[i])
		}
	}
	return nil
}

// preFormStations returns the stations used by request stages (and
// their fan-out legs) reachable from the entry without passing the
// batch-formation point.
func (c *cgraph) preFormStations() []int32 {
	seen := make([]bool, len(c.stages))
	queue := []int32{c.entry}
	seen[c.entry] = true
	var out []int32
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		out = append(out, c.stages[i].station)
		if i == c.formAfter {
			continue // batches take over past the formation point
		}
		for _, edges := range [][]cedge{c.stages[i].next, c.stages[i].fanout} {
			for _, e := range edges {
				if e.to >= 0 && !seen[e.to] {
					seen[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
	}
	return out
}

// --- bundled graphs ---

// SocialGraph is the declarative form of the Figure 22 User-path
// social-network scenario. It compiles to the exact event and RNG
// sequence of the retired hand-coded dispatch, so spec-driven runs are
// byte-identical to the pre-spec engine at any seed
// (testdata/legacy_fingerprints.txt holds that dispatch's recorded
// metrics).
func SocialGraph(cfg Config) *GraphSpec {
	return &GraphSpec{
		Name:  "social",
		Entry: "web",
		Stations: []StationSpec{
			{Name: "web"},
			{Name: "user", BatchTier: true},
			{Name: "mcrouter", CoresMul: 0.5},
			{Name: "memcached", CoresMul: 0.5},
			{Name: "storage", Infinite: true},
		},
		Coins: []CoinSpec{{Name: "cache", Prob: cfg.HitRate}},
		Stages: []StageSpec{
			{Name: "web", Station: "web", DemandMs: cfg.WebDemand,
				Next: []EdgeSpec{{To: "user1", Hop: true}}},
			{Name: "user1", Station: "user", DemandMs: cfg.UserPhase1,
				Next: []EdgeSpec{{To: "mcrouter", Hop: true}}},
			{Name: "mcrouter", Station: "mcrouter", DemandMs: cfg.McRouterDemand,
				Next: []EdgeSpec{{To: "memcached"}}},
			{Name: "memcached", Station: "memcached", DemandMs: cfg.MemcachedDemand,
				Next: []EdgeSpec{
					{To: "user2", Hop: true, Coin: "cache"},
					{To: "storage"},
				}},
			{Name: "storage", Station: "storage", DemandMs: cfg.StorageLatency, Fixed: true,
				Next: []EdgeSpec{{To: "user2", Hop: true}}},
			{Name: "user2", Station: "user", DemandMs: cfg.UserPhase2,
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
		},
		Batch: &BatchSpec{
			FormAfter: "web", Entry: "buser1", EntryHop: true,
			Stages: []BatchStageSpec{
				{Name: "buser1", Station: "user", DemandMs: cfg.UserPhase1,
					Next: []EdgeSpec{{To: "bmcrouter", Hop: true}}},
				{Name: "bmcrouter", Station: "mcrouter", DemandMs: cfg.McRouterDemand,
					Next: []EdgeSpec{{To: "bmemcached"}}},
				{Name: "bmemcached", Station: "memcached", DemandMs: cfg.MemcachedDemand,
					Diverge: &DivergeSpec{
						Coin: "cache",
						Hit:  EdgeSpec{To: "buser2", Hop: true},
						Miss: EdgeSpec{To: "bstorage"},
						Hold: &EdgeSpec{To: "buser2hold", Hop: true},
					}},
				{Name: "bstorage", Station: "storage", DemandMs: cfg.StorageLatency, Fixed: true,
					Next: []EdgeSpec{{To: "buser2", Hop: true}}},
				{Name: "buser2", Station: "user", DemandMs: cfg.UserPhase2,
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
				{Name: "buser2hold", Station: "user", DemandMs: cfg.UserPhase2,
					HoldMs: cfg.StorageLatency,
					Next:   []EdgeSpec{{To: edgeDone, Hop: true}}},
			},
		},
	}
}

// ComposePostConfig holds the per-tier demands and network hop of the
// compose-post path (paper Figure 3), in milliseconds. Load, horizon,
// batching, cores, drain, seed and monitor come from the run's Config.
type ComposePostConfig struct {
	WebDemand    float64
	OrchDemand   float64 // post orchestrator (join point)
	UniqueID     float64
	URLShorten   float64
	TextDemand   float64
	UserTag      float64
	StorageWrite float64
	CacheWrite   float64
	NetHop       float64
}

// DefaultComposePost returns the calibrated compose-post demands.
func DefaultComposePost() ComposePostConfig {
	return ComposePostConfig{
		WebDemand:    0.25,
		OrchDemand:   1.2,
		UniqueID:     0.15,
		URLShorten:   0.25,
		TextDemand:   0.8,
		UserTag:      0.4,
		StorageWrite: 1.0,
		CacheWrite:   0.05,
		NetHop:       0.06,
	}
}

// ComposePostGraph is the declarative form of the Figure 3
// compose-post path: orchestrator fan-out to four nanoservices, join,
// then persist through storage and the cache tier. The RPU path
// batches at the orchestrator.
func ComposePostGraph(cfg ComposePostConfig) *GraphSpec {
	legs := func(prefix string) ([]StageSpec, []EdgeSpec) {
		var stages []StageSpec
		var edges []EdgeSpec
		for _, l := range []struct {
			name, station string
			demand        float64
		}{
			{"uniq", "uniqueid", cfg.UniqueID},
			{"urls", "urlshort", cfg.URLShorten},
			{"text", "post-text", cfg.TextDemand},
			{"tags", "usertag", cfg.UserTag},
		} {
			stages = append(stages, StageSpec{
				Name: prefix + l.name, Station: l.station, DemandMs: l.demand,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}})
			edges = append(edges, EdgeSpec{To: prefix + l.name, Hop: true})
		}
		return stages, edges
	}
	rlegs, redges := legs("")
	blegs, bedges := legs("b")
	spec := &GraphSpec{
		Name:     "composepost",
		Entry:    "web",
		NetHopMs: cfg.NetHop,
		Stations: []StationSpec{
			{Name: "web"},
			{Name: "post-orch", BatchTier: true},
			{Name: "uniqueid", CoresMul: 0.25},
			{Name: "urlshort", CoresMul: 0.25},
			{Name: "post-text", CoresMul: 0.5},
			{Name: "usertag", CoresMul: 0.25},
			{Name: "storage", Infinite: true},
			{Name: "memcached", CoresMul: 0.25},
		},
		Stages: append([]StageSpec{
			{Name: "web", Station: "web", DemandMs: cfg.WebDemand,
				Next: []EdgeSpec{{To: "orch", Hop: true}}},
			{Name: "orch", Station: "post-orch", DemandMs: cfg.OrchDemand,
				Fanout: redges,
				Next:   []EdgeSpec{{To: "store"}}},
			{Name: "store", Station: "storage", DemandMs: cfg.StorageWrite, Fixed: true,
				Next: []EdgeSpec{{To: "cache"}}},
			{Name: "cache", Station: "memcached", DemandMs: cfg.CacheWrite,
				Next: []EdgeSpec{{To: edgeDone}}},
		}, rlegs...),
		Batch: &BatchSpec{
			// Logic-tier batching: the web tier acknowledges each request
			// individually and the batch enters the orchestrator directly
			// (no entry hop).
			FormAfter: "web", Entry: "borch",
			Stages: append([]BatchStageSpec{
				{Name: "borch", Station: "post-orch", DemandMs: cfg.OrchDemand,
					Fanout: bedges,
					Next:   []EdgeSpec{{To: "bstore"}}},
				{Name: "bstore", Station: "storage", DemandMs: cfg.StorageWrite, Fixed: true,
					Next: []EdgeSpec{{To: "bcache"}}},
				{Name: "bcache", Station: "memcached", DemandMs: cfg.CacheWrite,
					Next: []EdgeSpec{{To: edgeDone}}},
			}, batchLegs(blegs)...),
		},
	}
	return spec
}

// batchLegs lifts request-stage leg specs into batch-stage leg specs
// (same stations, demands and join edges).
func batchLegs(stages []StageSpec) []BatchStageSpec {
	out := make([]BatchStageSpec, len(stages))
	for i, s := range stages {
		out[i] = BatchStageSpec{Name: s.Name, Station: s.Station,
			DemandMs: s.DemandMs, Fixed: s.Fixed, Next: s.Next}
	}
	return out
}

// HotelGraph is a DeathStarBench hotel-reservation scenario: frontend
// → search, which fans out to geo and rate in parallel, joins, then a
// profile lookup that hits its cache 80% of the time and otherwise
// pays a reservation-DB round trip. The RPU path batches at the search
// tier.
func HotelGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "hotel",
		Entry:    "frontend",
		NetHopMs: 0.06,
		Stations: []StationSpec{
			{Name: "frontend"},
			{Name: "search", BatchTier: true},
			{Name: "geo", CoresMul: 0.5},
			{Name: "rate", CoresMul: 0.5},
			{Name: "profile", CoresMul: 0.5},
			{Name: "reservedb", Infinite: true},
		},
		Coins: []CoinSpec{{Name: "profilecache", Prob: 0.8}},
		Stages: []StageSpec{
			{Name: "frontend", Station: "frontend", DemandMs: 0.3,
				Next: []EdgeSpec{{To: "search", Hop: true}}},
			{Name: "search", Station: "search", DemandMs: 1.1,
				Fanout: []EdgeSpec{{To: "geo", Hop: true}, {To: "rate", Hop: true}},
				Next:   []EdgeSpec{{To: "profile", Hop: true}}},
			{Name: "geo", Station: "geo", DemandMs: 0.35,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "rate", Station: "rate", DemandMs: 0.45,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "profile", Station: "profile", DemandMs: 0.6,
				Next: []EdgeSpec{
					{To: edgeDone, Hop: true, Coin: "profilecache"},
					{To: "reservedb"},
				}},
			{Name: "reservedb", Station: "reservedb", DemandMs: 2.0, Fixed: true,
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
		},
		Batch: &BatchSpec{
			FormAfter: "frontend", Entry: "bsearch", EntryHop: true,
			Stages: []BatchStageSpec{
				{Name: "bsearch", Station: "search", DemandMs: 1.1,
					Fanout: []EdgeSpec{{To: "bgeo", Hop: true}, {To: "brate", Hop: true}},
					Next:   []EdgeSpec{{To: "bprofile", Hop: true}}},
				{Name: "bgeo", Station: "geo", DemandMs: 0.35,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "brate", Station: "rate", DemandMs: 0.45,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "bprofile", Station: "profile", DemandMs: 0.6,
					Diverge: &DivergeSpec{
						Coin: "profilecache",
						Hit:  EdgeSpec{To: "bdone", Hop: true},
						Miss: EdgeSpec{To: "breservedb"},
						Hold: &EdgeSpec{To: "bprofilehold", Hop: true},
					}},
				{Name: "breservedb", Station: "reservedb", DemandMs: 2.0, Fixed: true,
					Next: []EdgeSpec{{To: "bdone", Hop: true}}},
				// Unsplit batches hold a profile server for the DB round
				// trip at the reconvergence point.
				{Name: "bprofilehold", Station: "profile", DemandMs: 0, Fixed: true,
					HoldMs: 2.0,
					Next:   []EdgeSpec{{To: "bdone", Hop: true}}},
				// Reply aggregation back at the search tier before the
				// batch completes.
				{Name: "bdone", Station: "search", DemandMs: 0.1,
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
			},
		},
	}
}

// MediaGraph is a DeathStarBench media-service scenario: a sequential
// review pipeline (frontend → API → review compose → movie info) with
// a movie-info cache divergence into storage, then the rating tier.
// The RPU path batches at the API tier.
func MediaGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "media",
		Entry:    "frontend",
		NetHopMs: 0.06,
		Stations: []StationSpec{
			{Name: "frontend"},
			{Name: "api", BatchTier: true},
			{Name: "review", CoresMul: 0.5},
			{Name: "movieinfo", CoresMul: 0.5},
			{Name: "rating", CoresMul: 0.25},
			{Name: "moviedb", Infinite: true},
		},
		Coins: []CoinSpec{{Name: "moviecache", Prob: 0.7}},
		Stages: []StageSpec{
			{Name: "frontend", Station: "frontend", DemandMs: 0.25,
				Next: []EdgeSpec{{To: "api", Hop: true}}},
			{Name: "api", Station: "api", DemandMs: 1.0,
				Next: []EdgeSpec{{To: "review", Hop: true}}},
			{Name: "review", Station: "review", DemandMs: 0.7,
				Next: []EdgeSpec{{To: "movieinfo", Hop: true}}},
			{Name: "movieinfo", Station: "movieinfo", DemandMs: 0.5,
				Next: []EdgeSpec{
					{To: "rating", Hop: true, Coin: "moviecache"},
					{To: "moviedb"},
				}},
			{Name: "moviedb", Station: "moviedb", DemandMs: 1.5, Fixed: true,
				Next: []EdgeSpec{{To: "rating", Hop: true}}},
			{Name: "rating", Station: "rating", DemandMs: 0.3,
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
		},
		Batch: &BatchSpec{
			FormAfter: "frontend", Entry: "bapi", EntryHop: true,
			Stages: []BatchStageSpec{
				{Name: "bapi", Station: "api", DemandMs: 1.0,
					Next: []EdgeSpec{{To: "breview", Hop: true}}},
				{Name: "breview", Station: "review", DemandMs: 0.7,
					Next: []EdgeSpec{{To: "bmovieinfo", Hop: true}}},
				{Name: "bmovieinfo", Station: "movieinfo", DemandMs: 0.5,
					Diverge: &DivergeSpec{
						Coin: "moviecache",
						Hit:  EdgeSpec{To: "brating", Hop: true},
						Miss: EdgeSpec{To: "bmoviedb"},
						Hold: &EdgeSpec{To: "bratinghold", Hop: true},
					}},
				{Name: "bmoviedb", Station: "moviedb", DemandMs: 1.5, Fixed: true,
					Next: []EdgeSpec{{To: "brating", Hop: true}}},
				{Name: "brating", Station: "rating", DemandMs: 0.3,
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
				{Name: "bratinghold", Station: "rating", DemandMs: 0.3,
					HoldMs: 1.5,
					Next:   []EdgeSpec{{To: edgeDone, Hop: true}}},
			},
		},
	}
}

// IoTGraph is an IoT/edge pipeline: gateway → decode → analytics,
// which raises a synchronous alert and fires an asynchronous archive
// write that nobody waits for (the async-edge showcase). The RPU path
// batches at the analytics tier.
func IoTGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "iot",
		Entry:    "gateway",
		NetHopMs: 0.06,
		Stations: []StationSpec{
			{Name: "gateway"},
			{Name: "analytics", BatchTier: true},
			{Name: "decode", CoresMul: 0.5},
			{Name: "alert", CoresMul: 0.25},
			{Name: "archive", Infinite: true},
		},
		Stages: []StageSpec{
			{Name: "gateway", Station: "gateway", DemandMs: 0.2,
				Next: []EdgeSpec{{To: "decode", Hop: true}}},
			{Name: "decode", Station: "decode", DemandMs: 0.6,
				Next: []EdgeSpec{{To: "analytics", Hop: true}}},
			{Name: "analytics", Station: "analytics", DemandMs: 1.3,
				Fanout: []EdgeSpec{
					{To: "alert", Hop: true},
					{To: "archive", Hop: true, Async: true},
				},
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
			{Name: "alert", Station: "alert", DemandMs: 0.3,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "archive", Station: "archive", DemandMs: 4.0, Fixed: true,
				Next: []EdgeSpec{{To: edgeJoin}}},
		},
		Batch: &BatchSpec{
			FormAfter: "gateway", Entry: "bdecode", EntryHop: true,
			Stages: []BatchStageSpec{
				{Name: "bdecode", Station: "decode", DemandMs: 0.6,
					Next: []EdgeSpec{{To: "banalytics", Hop: true}}},
				{Name: "banalytics", Station: "analytics", DemandMs: 1.3,
					Fanout: []EdgeSpec{
						{To: "balert", Hop: true},
						{To: "barchive", Hop: true, Async: true},
					},
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
				{Name: "balert", Station: "alert", DemandMs: 0.3,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "barchive", Station: "archive", DemandMs: 4.0, Fixed: true,
					Next: []EdgeSpec{{To: edgeJoin}}},
			},
		},
	}
}
