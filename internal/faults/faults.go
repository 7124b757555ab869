// Package faults is the deterministic fault-injection model: a declarative
// Plan of link faults (seeded drops, duplicates, delay jitter, timed
// partitions) and node faults (straggler compute-dilation windows), and the
// compiled Injector the network and core consult at runtime.
//
// Everything is driven by virtual time and a per-run splitmix64 PRNG seeded
// from the plan, so identical seeds give bit-identical runs at any host
// parallelism, and a nil or inactive plan leaves the simulator byte-identical
// to the fault-free configuration.
package faults

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dsmsim/internal/sim"
)

// ruleKind discriminates Rule variants.
type ruleKind int

const (
	kindDrop ruleKind = iota
	kindDropLink
	kindDuplicate
	kindJitter
	kindPartition
	kindStraggler
	kindSeed
	kindRTO
	kindStart
)

// Rule is one declarative fault clause, built with the constructors below
// and composed into a Plan. The zero Rule is a no-op.
type Rule struct {
	kind     ruleKind
	p        float64
	a, b     int
	factor   float64
	from, to sim.Time
	d        sim.Time
	seed     uint64
}

// Drop makes every wire transmission (data frames, retransmissions and
// link-layer acks alike) vanish with probability p. p must be in [0, 1):
// certain loss can never terminate.
func Drop(p float64) Rule { return Rule{kind: kindDrop, p: p} }

// DropLink overrides the drop probability for the directed link src→dst.
func DropLink(src, dst int, p float64) Rule {
	return Rule{kind: kindDropLink, a: src, b: dst, p: p}
}

// Duplicate delivers a second copy of a transmission with probability p
// (the receiver's sequence-number dedup discards it, counting it).
func Duplicate(p float64) Rule { return Rule{kind: kindDuplicate, p: p} }

// Jitter adds a uniformly distributed extra wire delay in [0, d] to every
// transmission. Per-link FIFO is restored by the receiver's reorder buffer.
func Jitter(d sim.Time) Rule { return Rule{kind: kindJitter, d: d} }

// Partition cuts both directions of the link between nodes a and b during
// the virtual-time window [from, to): every transmission crossing it is
// lost. Retransmission recovers once the window closes, so to must be
// strictly after from.
func Partition(a, b int, from, to sim.Time) Rule {
	return Rule{kind: kindPartition, a: a, b: b, from: from, to: to}
}

// Straggler dilates node's computation by factor (≥ 1) during the window
// [from, to); to = 0 means until the end of the run.
func Straggler(node int, factor float64, from, to sim.Time) Rule {
	return Rule{kind: kindStraggler, a: node, factor: factor, from: from, to: to}
}

// Seed sets the fault PRNG seed (default 1). Identical seeds give
// bit-identical runs.
func Seed(s uint64) Rule { return Rule{kind: kindSeed, seed: s} }

// StartAtBarrier arms the whole plan only once global barrier k completes
// (the k-th time every node has arrived at a barrier, counting from 1).
// Until then the injector is inert and the wire is byte-identical to the
// fault-free simulator; activation is part of the plan's semantics, so the
// run's schedule is the same whether the fault-free prefix was simulated or
// restored from a checkpoint. k = 0 (the default) means active from time 0.
func StartAtBarrier(k int) Rule { return Rule{kind: kindStart, a: k} }

// RTO overrides the base retransmission timeout. The default is derived per
// message from the timing model (one-way time out, ack back, plus slack),
// which is almost always what you want; set this only to study timeout
// sensitivity.
func RTO(d sim.Time) Rule { return Rule{kind: kindRTO, d: d} }

// Plan is a composed fault schedule. Build one with NewPlan; the zero Plan
// (and a nil *Plan) injects nothing and is byte-identical to no plan.
type Plan struct {
	rules []Rule
}

// NewPlan composes rules into a plan.
func NewPlan(rules ...Rule) *Plan { return &Plan{rules: rules} }

// Add appends rules, returning the plan for chaining.
func (p *Plan) Add(rules ...Rule) *Plan {
	p.rules = append(p.rules, rules...)
	return p
}

// Validation errors (wrapped with rule context by Validate).
var (
	// ErrBadProbability reports a drop/duplicate probability outside [0, 1).
	ErrBadProbability = errors.New("faults: probability must be in [0, 1)")
	// ErrBadWindow reports a partition or straggler window with to ≤ from.
	ErrBadWindow = errors.New("faults: window end must be after its start")
	// ErrBadNode reports a node id that is negative or ≥ the cluster size.
	ErrBadNode = errors.New("faults: node id out of range")
	// ErrBadFactor reports a straggler factor below 1.
	ErrBadFactor = errors.New("faults: straggler factor must be >= 1")
	// ErrBadDuration reports a negative jitter or non-positive RTO.
	ErrBadDuration = errors.New("faults: bad duration")
)

// Validate checks every rule's static constraints (probability ranges,
// window ordering, factors). Node-id bounds need the cluster size and are
// checked by ValidateFor, which core's Config.Validate calls.
func (p *Plan) Validate() error { return p.ValidateFor(0) }

// ValidateFor is Validate plus node-id bounds checks against a cluster of
// the given size (size ≤ 0 skips the bounds checks).
func (p *Plan) ValidateFor(nodes int) error {
	if p == nil {
		return nil
	}
	checkNode := func(n int) error {
		if n < 0 || (nodes > 0 && n >= nodes) {
			return fmt.Errorf("%w: %d (cluster size %d)", ErrBadNode, n, nodes)
		}
		return nil
	}
	for _, r := range p.rules {
		switch r.kind {
		case kindDrop, kindDuplicate:
			if !(r.p >= 0 && r.p < 1) { // also rejects NaN
				return fmt.Errorf("%w: %v", ErrBadProbability, r.p)
			}
		case kindDropLink:
			if !(r.p >= 0 && r.p < 1) { // also rejects NaN
				return fmt.Errorf("%w: %v", ErrBadProbability, r.p)
			}
			if err := checkNode(r.a); err != nil {
				return err
			}
			if err := checkNode(r.b); err != nil {
				return err
			}
		case kindJitter:
			if r.d < 0 {
				return fmt.Errorf("%w: jitter %v", ErrBadDuration, r.d)
			}
		case kindRTO:
			if r.d <= 0 {
				return fmt.Errorf("%w: rto %v", ErrBadDuration, r.d)
			}
		case kindPartition:
			if err := checkNode(r.a); err != nil {
				return err
			}
			if err := checkNode(r.b); err != nil {
				return err
			}
			if r.from < 0 || r.to <= r.from {
				return fmt.Errorf("%w: partition [%v, %v)", ErrBadWindow, r.from, r.to)
			}
		case kindStraggler:
			if err := checkNode(r.a); err != nil {
				return err
			}
			if !(r.factor >= 1) || math.IsInf(r.factor, 1) { // also rejects NaN
				return fmt.Errorf("%w: %v", ErrBadFactor, r.factor)
			}
			if r.from < 0 || (r.to != 0 && r.to <= r.from) {
				return fmt.Errorf("%w: straggler [%v, %v)", ErrBadWindow, r.from, r.to)
			}
		case kindStart:
			if r.a < 0 {
				return fmt.Errorf("%w: start barrier %d", ErrBadWindow, r.a)
			}
		}
	}
	return nil
}

// StartBarrier returns the plan's StartAtBarrier epoch (0 when the plan is
// active from time 0). The sweep planner reads this to find the fault-free
// prefix that grid points under different plans share.
func (p *Plan) StartBarrier() int {
	if p == nil {
		return 0
	}
	k := 0
	for _, r := range p.rules {
		if r.kind == kindStart {
			k = r.a
		}
	}
	return k
}

// window is a compiled partition or straggler interval.
type window struct {
	a, b     int
	factor   float64
	from, to sim.Time
}

// Injector is a compiled, per-run Plan instance: it owns the run's fault
// PRNG, so each run draws an independent, reproducible stream. All methods
// are nil-receiver safe and report "no fault".
type Injector struct {
	state uint64 // splitmix64 PRNG state

	drop     float64
	dup      float64
	jitter   sim.Time
	rto      sim.Time // 0 = per-message default
	linkDrop map[int]float64
	parts    []window
	strag    []window
	nodes    int
	wire     bool

	// startBarrier > 0 keeps the injector inert (started = false) until
	// core reports completion of global barrier number startBarrier; the
	// barrier hook then calls Activate. See StartAtBarrier.
	startBarrier int
	started      bool
}

// Compile instantiates the plan for a run on a cluster of the given size.
// The plan must already have passed ValidateFor(nodes).
func (p *Plan) Compile(nodes int) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{state: 1, nodes: nodes}
	for _, r := range p.rules {
		switch r.kind {
		case kindSeed:
			in.state = r.seed
		case kindDrop:
			in.drop = r.p
		case kindDropLink:
			if in.linkDrop == nil {
				in.linkDrop = make(map[int]float64)
			}
			in.linkDrop[r.a*nodes+r.b] = r.p
		case kindDuplicate:
			in.dup = r.p
		case kindJitter:
			in.jitter = r.d
		case kindRTO:
			in.rto = r.d
		case kindPartition:
			in.parts = append(in.parts, window{a: r.a, b: r.b, from: r.from, to: r.to})
		case kindStraggler:
			in.strag = append(in.strag, window{a: r.a, factor: r.factor, from: r.from, to: r.to})
		case kindStart:
			in.startBarrier = r.a
		}
	}
	in.wire = in.drop > 0 || in.dup > 0 || in.jitter > 0 ||
		len(in.linkDrop) > 0 || len(in.parts) > 0
	in.started = in.startBarrier == 0
	return in
}

// StartBarrier returns the compiled StartAtBarrier epoch (0 = immediate).
func (in *Injector) StartBarrier() int {
	if in == nil {
		return 0
	}
	return in.startBarrier
}

// Started reports whether the plan is armed: true from time 0 without a
// StartAtBarrier rule, and after Activate with one.
func (in *Injector) Started() bool { return in != nil && in.started }

// Activate arms a StartAtBarrier plan. Core calls it when global barrier
// number StartBarrier completes; until then Dilation reports healthy and
// the network leaves the wire untouched.
func (in *Injector) Activate() {
	if in != nil {
		in.started = true
	}
}

// Cursor returns the PRNG state, the injector's only mutable word. A
// checkpoint captures it so a forked run draws the identical fault stream.
func (in *Injector) Cursor() uint64 {
	if in == nil {
		return 0
	}
	return in.state
}

// SetCursor restores a PRNG state captured with Cursor.
func (in *Injector) SetCursor(s uint64) {
	if in != nil {
		in.state = s
	}
}

// WireActive reports whether any link-level fault can fire — the network
// enables its ack/retransmission layer only then, so a straggler-only (or
// empty) plan leaves the wire byte-identical to the fault-free simulator.
func (in *Injector) WireActive() bool { return in != nil && in.wire }

// next advances the splitmix64 PRNG: a tiny, platform-independent generator
// whose whole state is one word, so runs replay exactly from the seed.
func (in *Injector) next() uint64 {
	in.state += 0x9E3779B97F4A7C15
	z := in.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (in *Injector) float() float64 { return float64(in.next()>>11) / (1 << 53) }

// Cut reports whether the src→dst link is inside a partition window at now.
// Pure in virtual time — no PRNG draw — so it never perturbs the stream.
func (in *Injector) Cut(src, dst int, now sim.Time) bool {
	if in == nil {
		return false
	}
	for _, w := range in.parts {
		if ((w.a == src && w.b == dst) || (w.a == dst && w.b == src)) &&
			now >= w.from && now < w.to {
			return true
		}
	}
	return false
}

// DropDraw draws whether a transmission on src→dst is lost on the wire.
func (in *Injector) DropDraw(src, dst int) bool {
	if in == nil {
		return false
	}
	p := in.drop
	if in.linkDrop != nil {
		if lp, ok := in.linkDrop[src*in.nodes+dst]; ok {
			p = lp
		}
	}
	if p <= 0 {
		return false
	}
	return in.float() < p
}

// DupDraw draws whether a transmission is duplicated on the wire.
func (in *Injector) DupDraw() bool {
	if in == nil || in.dup <= 0 {
		return false
	}
	return in.float() < in.dup
}

// JitterDraw draws the extra wire delay of one transmission.
func (in *Injector) JitterDraw() sim.Time {
	if in == nil || in.jitter <= 0 {
		return 0
	}
	return sim.Time(in.next() % uint64(in.jitter+1))
}

// MaxJitter returns the configured jitter bound (for RTO sizing).
func (in *Injector) MaxJitter() sim.Time {
	if in == nil {
		return 0
	}
	return in.jitter
}

// BaseRTO returns the configured retransmission-timeout override, or 0 when
// the network should derive it per message from the timing model.
func (in *Injector) BaseRTO() sim.Time {
	if in == nil {
		return 0
	}
	return in.rto
}

// Dilation returns node's compute-dilation factor at now (1 when healthy).
// Overlapping straggler windows multiply.
func (in *Injector) Dilation(node int, now sim.Time) float64 {
	if in == nil || len(in.strag) == 0 || !in.started {
		return 1
	}
	f := 1.0
	for _, w := range in.strag {
		if w.a == node && now >= w.from && (w.to == 0 || now < w.to) {
			f *= w.factor
		}
	}
	return f
}

// Straggling reports whether the plan has any straggler windows at all.
func (in *Injector) Straggling() bool { return in != nil && len(in.strag) > 0 }

// Parse builds a Plan from a compact CLI spec: comma-separated clauses of
//
//	drop=P              global drop probability
//	dup=P               duplicate probability
//	jitter=DUR          uniform extra delay in [0, DUR]
//	rto=DUR             base retransmission timeout override
//	seed=N              PRNG seed
//	start=K             arm the plan only after global barrier K completes
//	partition=A-B@F:T   cut link A↔B during virtual window [F, T)
//	linkdrop=A-B:P      drop probability override for the directed link A→B
//	straggler=NxX[@F:T] node N computes X times slower during [F, T), to the
//	                    end of the run without a window or with T empty or 0;
//	                    repeatable (overlapping windows multiply)
//
// Durations use Go syntax ("5us", "2ms"). An empty spec yields an empty
// (inactive) plan.
func Parse(spec string) (*Plan, error) {
	p := NewPlan()
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad clause %q (want key=value)", item)
		}
		switch key {
		case "drop", "dup":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad probability %q: %v", val, err)
			}
			if key == "drop" {
				p.Add(Drop(f))
			} else {
				p.Add(Duplicate(f))
			}
		case "jitter", "rto":
			d, err := parseDur(val)
			if err != nil {
				return nil, err
			}
			if key == "jitter" {
				p.Add(Jitter(d))
			} else {
				p.Add(RTO(d))
			}
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Add(Seed(s))
		case "start":
			k, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad start barrier %q: %v", val, err)
			}
			p.Add(StartAtBarrier(k))
		case "partition":
			pair, win, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: partition %q needs A-B@FROM:TO", val)
			}
			a, b, err := parsePair(pair, "-")
			if err != nil {
				return nil, err
			}
			from, to, err := parseWindow(win)
			if err != nil {
				return nil, err
			}
			p.Add(Partition(a, b, from, to))
		case "linkdrop":
			pair, prob, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: linkdrop %q needs A-B:P", val)
			}
			a, b, err := parsePair(pair, "-")
			if err != nil {
				return nil, err
			}
			f, err := strconv.ParseFloat(prob, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad probability %q: %v", prob, err)
			}
			p.Add(DropLink(a, b, f))
		case "straggler":
			body, win, hasWin := strings.Cut(val, "@")
			nodeS, facS, ok := strings.Cut(body, "x")
			if !ok {
				return nil, fmt.Errorf("faults: straggler %q needs NODExFACTOR[@FROM:TO]", val)
			}
			node, err := strconv.Atoi(nodeS)
			if err != nil {
				return nil, fmt.Errorf("faults: bad straggler node %q: %v", nodeS, err)
			}
			factor, err := strconv.ParseFloat(facS, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad straggler factor %q: %v", facS, err)
			}
			var from, to sim.Time
			if hasWin {
				if from, to, err = parseWindow(win); err != nil {
					return nil, err
				}
			}
			p.Add(Straggler(node, factor, from, to))
		default:
			return nil, fmt.Errorf("faults: unknown clause %q", key)
		}
	}
	return p, p.Validate()
}

// String spells the plan in Parse's clause grammar, one clause per rule in
// the order the rules were added, so Parse(p.String()) is p again. A nil or
// empty plan is "".
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	clauses := make([]string, len(p.rules))
	for i, r := range p.rules {
		prob, a, b := strconv.FormatFloat(r.p, 'g', -1, 64), strconv.Itoa(r.a), strconv.Itoa(r.b)
		switch r.kind {
		case kindDrop:
			clauses[i] = "drop=" + prob
		case kindDuplicate:
			clauses[i] = "dup=" + prob
		case kindDropLink:
			clauses[i] = "linkdrop=" + a + "-" + b + ":" + prob
		case kindJitter:
			clauses[i] = "jitter=" + formatDur(r.d)
		case kindRTO:
			clauses[i] = "rto=" + formatDur(r.d)
		case kindSeed:
			clauses[i] = "seed=" + strconv.FormatUint(r.seed, 10)
		case kindStart:
			clauses[i] = "start=" + a
		case kindPartition:
			clauses[i] = "partition=" + a + "-" + b + "@" + formatDur(r.from) + ":" + formatDur(r.to)
		case kindStraggler:
			clauses[i] = "straggler=" + a + "x" + strconv.FormatFloat(r.factor, 'g', -1, 64)
			if r.from != 0 || r.to != 0 {
				clauses[i] += "@" + formatDur(r.from) + ":" + formatDur(r.to)
			}
		}
	}
	return strings.Join(clauses, ",")
}

// formatDur spells virtual time as parseDur reads it back: a Go duration,
// microseconds as "us".
func formatDur(d sim.Time) string {
	return strings.Replace(time.Duration(d).String(), "µ", "u", 1)
}

func parsePair(s, sep string) (int, int, error) {
	aS, bS, ok := strings.Cut(s, sep)
	if !ok {
		return 0, 0, fmt.Errorf("faults: bad node pair %q", s)
	}
	a, err := strconv.Atoi(strings.TrimSpace(aS))
	if err != nil {
		return 0, 0, fmt.Errorf("faults: bad node %q: %v", aS, err)
	}
	b, err := strconv.Atoi(strings.TrimSpace(bS))
	if err != nil {
		return 0, 0, fmt.Errorf("faults: bad node %q: %v", bS, err)
	}
	return a, b, nil
}

// parseWindow parses "FROM:TO"; TO may be empty or "0" for an open window
// (stragglers only — partitions reject it in Validate).
func parseWindow(s string) (sim.Time, sim.Time, error) {
	fromS, toS, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("faults: bad window %q (want FROM:TO)", s)
	}
	from, err := parseDur(fromS)
	if err != nil {
		return 0, 0, err
	}
	var to sim.Time
	if strings.TrimSpace(toS) != "" {
		if to, err = parseDur(toS); err != nil {
			return 0, 0, err
		}
	}
	return from, to, nil
}

// parseDur parses a Go duration ("150us") or a bare nanosecond count into
// virtual time.
func parseDur(s string) (sim.Time, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return sim.Time(n), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("faults: bad duration %q: %v", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("%w: %v", ErrBadDuration, d)
	}
	return sim.Time(d.Nanoseconds()), nil
}
