package critpath

import (
	"fmt"
	"strconv"
	"strings"

	"dsmsim/internal/sim"
)

// Class is a what-if cost class: one knob of the timing model the
// analyzer can rescale, chosen so the classes are disjoint (no cost
// belongs to two classes). Lock and barrier traffic scale as a whole
// (wire + service), since that is what their path components measure.
type Class uint8

const (
	// ClassNone marks costs no what-if knob reaches (ARQ machinery,
	// notify gaps, holdoff).
	ClassNone Class = iota
	// ClassCompute scales every Ctx.Compute duration (and with it the
	// dilations multiplied onto it).
	ClassCompute
	// ClassMsg scales the wire latency of protocol messages.
	ClassMsg
	// ClassSvc scales the handler cost of protocol messages.
	ClassSvc
	// ClassLock scales lock-protocol traffic, wire and service.
	ClassLock
	// ClassBarrier scales barrier-protocol traffic, wire and service.
	ClassBarrier

	// NumClasses sizes per-class accumulators.
	NumClasses
)

var classNames = [NumClasses]string{
	"none", "compute", "msg", "svc", "lock", "barrier",
}

// String names the class as the -whatif flag spells it.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// classOf maps a path component to the what-if class that rescales it.
func classOf(c Component) Class {
	switch c {
	case Compute, Straggler:
		return ClassCompute
	case MsgWire, Forward:
		return ClassMsg
	case MsgService:
		return ClassSvc
	case LockWait:
		return ClassLock
	case BarrierWait:
		return ClassBarrier
	default:
		return ClassNone
	}
}

// Scale is one what-if rescaling: multiply every cost of Class by
// PPM/1e6. The factor is held in integer parts-per-million so the
// re-simulation stays exactly deterministic (no float accumulation).
type Scale struct {
	Class Class
	PPM   int64
}

// ParseScale parses a "component=factor" spec, e.g. "lock=0.5" (halve
// lock-protocol costs) or "msg=2" (double message wire latency). Valid
// components: compute, msg, svc, lock, barrier; factors in [0, 100].
func ParseScale(spec string) (*Scale, error) {
	name, val, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("critpath: bad what-if spec %q (want component=factor)", spec)
	}
	var cl Class
	switch strings.TrimSpace(name) {
	case "compute":
		cl = ClassCompute
	case "msg":
		cl = ClassMsg
	case "svc":
		cl = ClassSvc
	case "lock":
		cl = ClassLock
	case "barrier":
		cl = ClassBarrier
	default:
		return nil, fmt.Errorf("critpath: unknown what-if component %q (want compute, msg, svc, lock or barrier)", name)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
	if err != nil || !(f >= 0 && f <= 100) { // also rejects NaN
		return nil, fmt.Errorf("critpath: bad what-if factor %q (want a number in [0, 100])", val)
	}
	return &Scale{Class: cl, PPM: int64(f*1e6 + 0.5)}, nil
}

// String renders the scale as the flag spells it.
func (s *Scale) String() string {
	return fmt.Sprintf("%s=%s", s.Class, strconv.FormatFloat(float64(s.PPM)/1e6, 'g', -1, 64))
}

func (s *Scale) scale(d sim.Time) sim.Time {
	return sim.Time(int64(d) * s.PPM / 1e6)
}

// kindIn reports whether a synchronization kind falls in the class.
func (s *Scale) kindIn(kind int) bool {
	switch s.Class {
	case ClassLock:
		return kind < LockKinds
	case ClassBarrier:
		return kind >= LockKinds && kind < ProtoKindBase
	}
	return false
}

// Wire rescales a message's wire latency. Nil-safe: a nil scale is the
// identity, so instrumentation sites need no extra branch.
func (s *Scale) Wire(kind int, d sim.Time) sim.Time {
	if s == nil {
		return d
	}
	if (s.Class == ClassMsg && kind >= ProtoKindBase) || s.kindIn(kind) {
		return s.scale(d)
	}
	return d
}

// SvcCost rescales a message's handler cost.
func (s *Scale) SvcCost(kind int, d sim.Time) sim.Time {
	if s == nil {
		return d
	}
	if (s.Class == ClassSvc && kind >= ProtoKindBase) || s.kindIn(kind) {
		return s.scale(d)
	}
	return d
}

// ComputeCost rescales a Ctx.Compute duration.
func (s *Scale) ComputeCost(d sim.Time) sim.Time {
	if s == nil || s.Class != ClassCompute {
		return d
	}
	return s.scale(d)
}

// Predict returns the completion time the critical path predicts for a
// re-simulation under s: the recorded path with its scalable costs in
// s.Class rescaled. The true re-simulated time is at least this large in
// expectation — shrinking the recorded path can expose a different
// chain, and queueing effects (FIFO ordering, endpoint busy time,
// holdoff) do not scale — so the prediction is a near-lower bound that
// the what-if run reports side by side with the measured time.
func (r *Report) Predict(s *Scale) sim.Time {
	sc := r.Scalable[s.Class]
	return r.Total - sc + sim.Time(int64(sc)*s.PPM/1e6)
}
