package apps

import (
	"fmt"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// lossyPlan is the ISSUE's acceptance configuration: 1% uniform drop at a
// fixed seed.
func lossyPlan(seed uint64) *faults.Plan {
	return faults.NewPlan(faults.Drop(0.01), faults.Seed(seed))
}

// runLossy runs an app at Small size under the plan and verifies it.
func runLossy(t *testing.T, name, protocol string, g, nodes int, plan *faults.Plan) *core.Result {
	t.Helper()
	entry, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: g, Protocol: protocol,
		Limit: 2000 * sim.Second, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunVerified(entry.New(Small))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAllAppsVerifyUnderLoss is the ISSUE's acceptance matrix: every
// bundled application completes, verifies, and produces seed-stable
// retransmission counters at 1% drop under every protocol at both
// granularity extremes. The ack/retransmission layer must make loss
// invisible to the coherence protocols — only time and the reliability
// counters may move.
func TestAllAppsVerifyUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full app × protocol × granularity fault matrix")
	}
	var sawRetx bool
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, p := range proto.PaperNames() {
				for _, g := range []int{64, 4096} {
					res := runLossy(t, name, p, g, 4, lossyPlan(1))
					if res.WireDrops == 0 {
						t.Errorf("%s/%d: 1%% drop produced no wire drops over %d msgs",
							p, g, res.NetMsgs)
					}
					sawRetx = sawRetx || res.Retransmits > 0
				}
			}
		})
	}
	if !sawRetx {
		t.Error("no configuration retransmitted at 1% drop")
	}
}

// TestLossSeedStability replays two apps at both granularity extremes:
// the same seed must reproduce time and every reliability counter
// exactly, and a different seed must not.
func TestLossSeedStability(t *testing.T) {
	for _, name := range []string{"lu", "barnes-original"} {
		for _, g := range []int{64, 4096} {
			name, g := name, g
			t.Run(fmt.Sprintf("%s-%d", name, g), func(t *testing.T) {
				a := runLossy(t, name, core.HLRC, g, 4, lossyPlan(1))
				b := runLossy(t, name, core.HLRC, g, 4, lossyPlan(1))
				if a.Time != b.Time || a.Retransmits != b.Retransmits ||
					a.WireDrops != b.WireDrops || a.AcksSent != b.AcksSent {
					t.Fatalf("same seed diverged: T=%v/%v retx=%d/%d",
						a.Time, b.Time, a.Retransmits, b.Retransmits)
				}
				c := runLossy(t, name, core.HLRC, g, 4, lossyPlan(2))
				if a.Time == c.Time && a.WireDrops == c.WireDrops {
					t.Fatal("different seeds produced identical runs")
				}
			})
		}
	}
}
