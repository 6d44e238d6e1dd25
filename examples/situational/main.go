// Situational policies: the paper's §V-A extension ("more complex policies
// such as behavioural or situational based policies may be derived") made
// concrete. Plain identifier filtering cannot stop a *legitimate* writer
// whose credentials are abused; situational and rate rules layered on the
// HPE can.
//
// Two demonstrations on the connected car:
//  1. stolen remote-unlock credentials used while the car is in motion
//     (DOOR-1's nastier cousin) — blocked by a situational rule;
//  2. a compromised sensor flooding its own legitimate broadcast to starve
//     the bus — capped by a rate rule.
//
// Run with: go run ./examples/situational
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/behaviour"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/hpe"
	"repro/internal/policy"
	"repro/internal/threatmodel"
)

func main() {
	c := car.MustNew(car.Config{})

	// Identifier layer: compile and deploy the Table I policy as usual.
	analysis, err := car.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	set, err := threatmodel.DerivePolicies(analysis, "table-i", 1)
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := policy.Compile(set, policy.CompileOptions{
		Subjects: car.AllNodes, Modes: car.AllModes,
	})
	if err != nil {
		log.Fatal(err)
	}
	engines, err := hpe.Deploy(c.Bus(), compiled, c, car.AllNodes...)
	if err != nil {
		log.Fatal(err)
	}

	// Situational layer on the door locks: no unlock while in motion.
	doors, _ := c.Node(car.NodeDoorLocks)
	doorGuard := behaviour.New(engines[car.NodeDoorLocks], c.Scheduler().Now)
	must(doorGuard.AddRule(&behaviour.SituationalDeny{
		Label: "no-unlock-in-motion",
		When: behaviour.SituationFunc{Name: "vehicle in motion", Fn: func() bool {
			return c.State().ActualSpeed > 0
		}},
		Direction: canbus.Read,
		IDs:       policy.SingleID(car.IDDoorCommand),
	}))
	doors.SetInlineFilter(doorGuard)

	// Behavioural layer on the sensors: broadcast budget.
	sensors, _ := c.Node(car.NodeSensors)
	sensorGuard := behaviour.New(engines[car.NodeSensors], c.Scheduler().Now)
	must(sensorGuard.AddRule(&behaviour.RateLimit{
		Label:        "speed-broadcast-budget",
		Direction:    canbus.Write,
		IDs:          policy.SingleID(car.IDSensorSpeed),
		MaxPerWindow: 20,
		Window:       100 * time.Millisecond,
	}))
	sensors.SetInlineFilter(sensorGuard)

	fmt.Println("== 1. Credential abuse: remote unlock while driving ==")
	must(c.LockDoors())
	c.Scheduler().Run()
	c.StartTraffic(time.Millisecond, 5*time.Millisecond, 80) // driving at 80
	c.Scheduler().Run()
	must(c.UnlockDoors()) // legitimate credential, abused
	c.Scheduler().Run()
	fmt.Printf("  in motion (speed=%d): doors locked=%v, situational blocks=%d\n",
		c.State().ActualSpeed, c.State().DoorsLocked,
		doorGuard.Stats().RuleBlocked["no-unlock-in-motion"])

	// Stop the car; the same credential now works (no false positive).
	c.StartTraffic(time.Millisecond, 5*time.Millisecond, 0)
	c.Scheduler().Run()
	must(c.UnlockDoors())
	c.Scheduler().Run()
	fmt.Printf("  parked (speed=%d):     doors locked=%v\n",
		c.State().ActualSpeed, c.State().DoorsLocked)

	fmt.Println("\n== 2. Broadcast flood from a compromised sensor ==")
	sensors.Controller().CompromiseFilters() // firmware gone rogue
	f := canbus.MustDataFrame(car.IDSensorSpeed, []byte{0x00, 0x50})
	base := c.Scheduler().Now()
	for i := 0; i < 500; i++ {
		at := base + time.Duration(i)*200*time.Microsecond // 5 kHz flood
		c.Scheduler().At(at, func(time.Duration) { _ = sensors.Send(f.Clone()) })
	}
	c.Scheduler().Run()
	st := sensors.Stats()
	fmt.Printf("  flood: %d attempted, %d transmitted, %d rate-blocked\n",
		st.TxRequested, st.TxCompleted, st.TxBlocked)
	fmt.Printf("  bus utilisation: %.1f%%\n", c.Bus().Utilisation()*100)

	fmt.Println("\nBoth attacks use only identifiers their node is approved for —")
	fmt.Println("invisible to pure ID filtering, stopped by the situational layer.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
