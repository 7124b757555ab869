package core_test

import (
	"context"
	"reflect"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
	"dsmsim/internal/timing"
)

// TestSharedModelNeverWritten: every run reads one timing model. A parallel
// sweep over every registered protocol, under a jittery fault grid (the ARQ
// path's timers) and a what-if rescaling, must leave it equal to a fresh
// timing.Default(); under -race it also shows that no run writes it while
// another reads.
func TestSharedModelNeverWritten(t *testing.T) {
	scale, err := critpath.ParseScale("msg=0.5")
	if err != nil {
		t.Fatal(err)
	}
	grid := []sweep.FaultVariant{
		{Name: "none"},
		{Name: "jittery", Plan: faults.NewPlan(faults.Drop(0.01), faults.Jitter(20*sim.Microsecond),
			faults.Seed(3), faults.StartAtBarrier(2))},
	}
	o := sweep.Options{
		Size: apps.Small, Workers: 2, FaultGrid: grid, Fork: true,
		Config: core.Config{WhatIf: scale},
	}
	spec := sweep.Spec{
		Apps: []string{"fft"}, Protocols: proto.Names(), Granularities: []int{1024},
		Notifies: []network.Notify{network.Polling, network.Interrupt}, Nodes: 4,
		Faults: []string{"none", "jittery"},
	}
	if _, _, err := sweep.Run(context.Background(), o, spec.Points()); err != nil {
		t.Fatal(err)
	}
	if got := core.SharedModel(); !reflect.DeepEqual(got, timing.Default()) {
		t.Fatalf("the shared timing model was written:\n got %+v\nwant %+v", got, timing.Default())
	}
}
