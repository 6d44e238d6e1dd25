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

// TrafficClass describes one periodic legitimate flow.
type TrafficClass struct {
	// Name labels the class in the report.
	Name string
	// ID is the message identifier (lower = higher bus priority).
	ID uint32
	// From is the transmitting node (must be an approved writer).
	From string
	// Period between transmissions.
	Period time.Duration
}

// DefaultTrafficClasses maps the three criticality tiers onto catalog flows:
// the safety module's ECU command (highest priority), the sensor speed
// broadcast, and the telematics tracking report (lowest priority).
func DefaultTrafficClasses() []TrafficClass {
	return []TrafficClass{
		{Name: "safety-critical", ID: car.IDECUCommand, From: car.NodeSafety, Period: 5 * time.Millisecond},
		{Name: "normal", ID: car.IDSensorSpeed, From: car.NodeSensors, Period: 5 * time.Millisecond},
		{Name: "background", ID: car.IDTrackingReport, From: car.NodeTelematics, Period: 5 * time.Millisecond},
	}
}

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

// LatencyConfig parameterises the experiment.
type LatencyConfig struct {
	// Classes under measurement; DefaultTrafficClasses if empty.
	Classes []TrafficClass
	// Flood enables the priority-inversion attack.
	Flood bool
	// FloodID is the identifier flooded; it should outrank every class
	// (default 0x005, beating even the safety-critical command).
	FloodID uint32
	// FloodPeriod between flood frames (default 250µs — saturating).
	FloodPeriod time.Duration
	// Attacker is the compromised node transmitting the flood
	// (default Infotainment).
	Attacker string
	// Enforce selects the regime (EnforceNone or EnforceHPE).
	Enforce Enforcement
	// Horizon is the measured virtual time span (default 250ms).
	Horizon time.Duration
}

func (c *LatencyConfig) applyDefaults() {
	if len(c.Classes) == 0 {
		c.Classes = DefaultTrafficClasses()
	}
	if c.FloodID == 0 {
		c.FloodID = 0x005
	}
	if c.FloodPeriod == 0 {
		c.FloodPeriod = 250 * time.Microsecond
	}
	if c.Attacker == "" {
		c.Attacker = car.NodeInfotainment
	}
	if c.Enforce == 0 {
		c.Enforce = EnforceNone
	}
	if c.Horizon == 0 {
		c.Horizon = 250 * time.Millisecond
	}
}

// MeasureLatency runs the E1 experiment and returns one stats row per class.
func (h *Harness) MeasureLatency(cfg LatencyConfig) ([]LatencyStats, error) {
	cfg.applyDefaults()
	c, err := car.New(car.Config{Seed: h.Seed})
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
	stats := make([]LatencyStats, len(cfg.Classes))
	totals := make([]struct {
		sum time.Duration
		n   int
		max time.Duration
	}, len(cfg.Classes))
	idToIdx := map[uint32]int{}
	for i, tc := range cfg.Classes {
		stats[i].Class = tc.Name
		idToIdx[tc.ID] = i
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
	for i, tc := range cfg.Classes {
		i, tc := i, tc
		node, ok := c.Node(tc.From)
		if !ok {
			return nil, fmt.Errorf("attack: unknown class source %q", tc.From)
		}
		frame := canbus.MustDataFrame(tc.ID, []byte{0x00, 0x30})
		for at := tc.Period; at <= cfg.Horizon; at += tc.Period {
			c.Scheduler().At(at, func(now time.Duration) {
				queued[tc.ID] = append(queued[tc.ID], now)
				stats[i].Sent++
				_ = node.Send(frame.Clone())
			})
		}
	}

	// The flood, if enabled: a compromised node spamming a top-priority ID.
	if cfg.Flood {
		attacker, ok := c.Node(cfg.Attacker)
		if !ok {
			return nil, fmt.Errorf("attack: unknown attacker %q", cfg.Attacker)
		}
		attacker.Controller().CompromiseFilters()
		flood := canbus.MustDataFrame(cfg.FloodID, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
		for at := cfg.FloodPeriod; at <= cfg.Horizon; at += cfg.FloodPeriod {
			c.Scheduler().At(at, func(time.Duration) {
				_ = attacker.Send(flood.Clone())
			})
		}
	}

	c.Scheduler().RunUntil(cfg.Horizon + 50*time.Millisecond)
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
