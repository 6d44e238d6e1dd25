package attack

import (
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/car"
)

// This file implements the E1 experiment (DESIGN.md §4): the paper's stated
// future work of evaluating the approach "for systems with differing
// criticality". Three traffic classes share the bus — safety-critical,
// normal and background — while a compromised node floods a *high-priority*
// identifier (the classic CAN priority-inversion denial of service). The
// experiment measures per-class delivery latency with and without the
// policy engine: without enforcement the flood starves even safety-critical
// traffic; with the HPE the flood dies at the attacker's write filter and
// latencies stay nominal.

// trafficClass is one periodic legitimate flow.
type trafficClass struct {
	name string
	id   uint32 // lower = higher bus priority
	from string // an approved writer of id
}

// latencyClasses maps the three criticality tiers onto catalog flows: the
// safety module's ECU command (highest priority), the sensor speed
// broadcast, and the telematics tracking report (lowest priority).
var latencyClasses = [...]trafficClass{
	{name: "safety-critical", id: car.IDECUCommand, from: car.NodeSafety},
	{name: "normal", id: car.IDSensorSpeed, from: car.NodeSensors},
	{name: "background", id: car.IDTrackingReport, from: car.NodeTelematics},
}

// The E1 set-up: every class sends once per classPeriod; the flood sends
// floodID, which outranks every class, from the compromised floodAttacker
// once per floodPeriod (saturating); latencyHorizon is the measured span.
const (
	classPeriod    = 5 * time.Millisecond
	floodID        = 0x005
	floodPeriod    = 250 * time.Microsecond
	floodAttacker  = car.NodeInfotainment
	latencyHorizon = 250 * time.Millisecond
)

// LatencyStats aggregates per-class delivery measurements.
type LatencyStats struct {
	// Class echoes the traffic class name.
	Class string
	// Sent counts transmissions attempted over the horizon.
	Sent int
	// Delivered counts frames that reached the monitor.
	Delivered int
	// Mean and Max are delivery latencies (queue to broadcast completion).
	Mean time.Duration
	Max  time.Duration
}

// String renders one report row.
func (s LatencyStats) String() string {
	return fmt.Sprintf("%-16s sent=%-4d delivered=%-4d mean=%-10v max=%v",
		s.Class, s.Sent, s.Delivered, s.Mean, s.Max)
}

// LatencyConfig selects one E1 run.
type LatencyConfig struct {
	// Enforce selects the regime: EnforceHPE deploys the policy engines,
	// any other value runs without them.
	Enforce Enforcement
	// Flood enables the priority-inversion attack.
	Flood bool
}

// MeasureLatency runs the E1 experiment and returns one stats row per class.
func (h *Harness) MeasureLatency(cfg LatencyConfig) ([]LatencyStats, error) {
	c, err := car.New(car.Config{})
	if err != nil {
		return nil, err
	}
	if cfg.Enforce == EnforceHPE {
		if _, err := h.DeployEngines(c.Bus(), c, car.AllNodes...); err != nil {
			return nil, err
		}
	}

	// The monitor observes every delivery; it is measurement apparatus, not
	// part of the device, so it carries no HPE and no filters.
	monitor, err := c.Bus().Attach("Monitor")
	if err != nil {
		return nil, err
	}

	// queued holds each class's queue timestamps awaiting delivery, FIFO.
	// The handler and the traffic events both run on the car's goroutine.
	queued := map[uint32][]time.Duration{}
	stats := make([]LatencyStats, len(latencyClasses))
	var totals [len(latencyClasses)]struct {
		sum time.Duration
		n   int
		max time.Duration
	}
	idToIdx := map[uint32]int{}
	for i, tc := range latencyClasses {
		stats[i].Class = tc.name
		idToIdx[tc.id] = i
	}

	monitor.Controller().SetHandler(func(f canbus.Frame) {
		idx, ok := idToIdx[f.ID]
		times := queued[f.ID]
		if !ok || len(times) == 0 {
			return
		}
		lat := c.Scheduler().Now() - times[0]
		queued[f.ID] = times[1:]
		totals[idx].sum += lat
		totals[idx].n++
		if lat > totals[idx].max {
			totals[idx].max = lat
		}
	})

	// Periodic legitimate traffic.
	for i, tc := range latencyClasses {
		node, _ := c.Node(tc.from)
		frame := canbus.MustDataFrame(tc.id, []byte{0x00, 0x30})
		for at := classPeriod; at <= latencyHorizon; at += classPeriod {
			c.Scheduler().At(at, func(now time.Duration) {
				queued[tc.id] = append(queued[tc.id], now)
				stats[i].Sent++
				_ = node.Send(frame.Clone())
			})
		}
	}

	// The flood, if enabled: a compromised node spamming a top-priority ID.
	if cfg.Flood {
		attacker, _ := c.Node(floodAttacker)
		attacker.Controller().CompromiseFilters()
		flood := canbus.MustDataFrame(floodID, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
		for at := floodPeriod; at <= latencyHorizon; at += floodPeriod {
			c.Scheduler().At(at, func(time.Duration) {
				_ = attacker.Send(flood.Clone())
			})
		}
	}

	c.Scheduler().RunUntil(latencyHorizon + 50*time.Millisecond)
	c.Scheduler().Run()

	for i := range stats {
		stats[i].Delivered = totals[i].n
		stats[i].Max = totals[i].max
		if totals[i].n > 0 {
			stats[i].Mean = totals[i].sum / time.Duration(totals[i].n)
		}
	}
	return stats, nil
}
