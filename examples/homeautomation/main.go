// Home automation: a second application domain, modelled after the Tan et
// al. scenario the paper extends (§III). Shows the approach is not
// car-specific: the same pipeline (STRIDE -> DREAD -> policy -> compiled
// tables -> HPE) applied to a smart-home hub, lock, camera and thermostat
// on a shared device bus.
//
// Run with: go run ./examples/homeautomation
package main

import (
	"fmt"
	"log"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/dread"
	"repro/internal/hpe"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stride"
	"repro/internal/threatmodel"
)

// Message IDs of the home bus.
const (
	idLockCmd    = 0x20 // hub -> lock
	idLockState  = 0x21 // lock -> hub
	idCamStream  = 0x30 // camera -> hub
	idThermostat = 0x40 // thermostat -> hub
	idFirmware   = 0x70 // hub -> all, Maintenance mode only
)

func useCase() threatmodel.UseCase {
	return threatmodel.UseCase{
		Name:  "home-automation",
		Modes: []policy.Mode{"Home", "Away", "Maintenance"},
		Assets: []threatmodel.Asset{
			{Name: "front-lock", Node: "Lock", Critical: true, Description: "smart door lock"},
			{Name: "camera", Node: "Camera", Critical: true, Description: "indoor camera"},
			{Name: "thermostat", Node: "Thermostat", Description: "heating control"},
			{Name: "hub", Node: "Hub", Critical: true, Description: "automation hub with cloud uplink"},
		},
		EntryPoints: []threatmodel.EntryPoint{
			{Name: "cloud", Exposes: []string{"hub", "front-lock"}, Description: "cloud uplink"},
			{Name: "local-bus", Exposes: []string{"front-lock", "camera", "thermostat"},
				Description: "shared device bus"},
		},
		Comm: []threatmodel.CommRequirement{
			{Subject: "Hub", Action: policy.ActWrite, IDs: policy.SingleID(idLockCmd),
				Modes: []policy.Mode{"Home", "Away"}, Rationale: "lock command tx"},
			{Subject: "Lock", Action: policy.ActRead, IDs: policy.SingleID(idLockCmd),
				Modes: []policy.Mode{"Home", "Away"}, Rationale: "lock command rx"},
			{Subject: "Lock", Action: policy.ActWrite, IDs: policy.SingleID(idLockState),
				Rationale: "lock state tx"},
			{Subject: "Hub", Action: policy.ActRead, IDs: policy.SingleID(idLockState),
				Rationale: "lock state rx"},
			{Subject: "Camera", Action: policy.ActWrite, IDs: policy.SingleID(idCamStream),
				Rationale: "camera stream tx"},
			{Subject: "Hub", Action: policy.ActRead, IDs: policy.SingleID(idCamStream),
				Rationale: "camera stream rx"},
			{Subject: "Thermostat", Action: policy.ActWrite, IDs: policy.SingleID(idThermostat),
				Rationale: "thermostat tx"},
			{Subject: "Hub", Action: policy.ActRead, IDs: policy.SingleID(idThermostat),
				Rationale: "thermostat rx"},
			{Subject: "Hub", Action: policy.ActWrite, IDs: policy.SingleID(idFirmware),
				Modes: []policy.Mode{"Maintenance"}, Rationale: "firmware tx"},
			{Subject: "Lock", Action: policy.ActRead, IDs: policy.SingleID(idFirmware),
				Modes: []policy.Mode{"Maintenance"}, Rationale: "firmware rx lock"},
			{Subject: "Camera", Action: policy.ActRead, IDs: policy.SingleID(idFirmware),
				Modes: []policy.Mode{"Maintenance"}, Rationale: "firmware rx camera"},
		},
	}
}

func threats() []threatmodel.Threat {
	return []threatmodel.Threat{
		{
			ID: "LOCK-1", Description: "Spoofed unlock command while owners are away",
			Asset: "front-lock", EntryPoints: []string{"local-bus"},
			Modes:   []policy.Mode{"Away"},
			Effects: stride.Effects{ForgesIdentity: true, ModifiesData: true, EscalatesPrivilege: true},
			Assessment: dread.Assessment{
				Damage:          dread.DamageControl,
				Reproducibility: dread.ReproReliable,
				Exploitability:  dread.ExploitSkilled,
				AffectedUsers:   dread.AffectedOwner,
				Discoverability: dread.DiscoverKnown,
			},
			Vector: threatmodel.VectorInbound,
		},
		{
			ID: "CAM-1", Description: "Compromised thermostat exfiltrates camera frames",
			Asset: "camera", EntryPoints: []string{"local-bus"},
			Modes:   []policy.Mode{"Home", "Away"},
			Effects: stride.Effects{ModifiesData: true, DisclosesInfo: true},
			Assessment: dread.Assessment{
				Damage:          dread.DamageServiceLoss,
				Reproducibility: dread.ReproAlways,
				Exploitability:  dread.ExploitToolkit,
				AffectedUsers:   dread.AffectedOwner,
				Discoverability: dread.DiscoverResearch,
			},
			Vector: threatmodel.VectorOutbound,
		},
		{
			ID: "HUB-1", Description: "Rogue device pushes firmware outside maintenance",
			Asset: "hub", EntryPoints: []string{"cloud", "local-bus"},
			Modes:   []policy.Mode{"Home", "Away"},
			Effects: stride.Effects{ForgesIdentity: true, ModifiesData: true, EscalatesPrivilege: true},
			Assessment: dread.Assessment{
				Damage:          dread.DamageSafety,
				Reproducibility: dread.ReproSituational,
				Exploitability:  dread.ExploitSpecialist,
				AffectedUsers:   dread.AffectedFleet,
				Discoverability: dread.DiscoverObscure,
			},
			Vector: threatmodel.VectorInbound,
		},
	}
}

func main() {
	model, err := core.BuildModel(useCase(), threats(), "home-v1", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Home automation threat model ==")
	fmt.Print(report.TableI(model.Analysis, []string{"HUB-1", "LOCK-1", "CAM-1"}))

	// Build the home bus and deploy the compiled policy.
	sched := &sim.Scheduler{}
	bus := canbus.New(sched, canbus.Config{})
	nodes := []string{"Hub", "Lock", "Camera", "Thermostat"}
	for _, n := range nodes {
		bus.MustAttach(n)
	}
	lockOpen := false
	lock, _ := bus.Node("Lock")
	lock.Controller().SetHandler(func(f canbus.Frame) {
		if f.ID == idLockCmd && len(f.Data) > 0 {
			lockOpen = f.Data[0] == 0x02
		}
	})

	compiled, err := policy.Compile(model.Policies, policy.CompileOptions{
		Subjects: nodes,
		Modes:    []policy.Mode{"Home", "Away", "Maintenance"},
	})
	if err != nil {
		log.Fatal(err)
	}
	mode := &switchableMode{mode: "Away"}
	engines, err := hpe.Deploy(bus, compiled, mode, nodes...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Attacks in Away mode ==")

	// LOCK-1: compromised thermostat spoofs the unlock command.
	thermostat, _ := bus.Node("Thermostat")
	thermostat.Controller().CompromiseFilters()
	_ = thermostat.Send(canbus.MustDataFrame(idLockCmd, []byte{0x02}))
	sched.Run()
	fmt.Printf("LOCK-1 spoofed unlock: lockOpen=%v, thermostat write-blocked=%d\n",
		lockOpen, engines["Thermostat"].Stats().WritesBlocked)

	// CAM-1: the thermostat also tries to impersonate the camera stream.
	_ = thermostat.Send(canbus.MustDataFrame(idCamStream, []byte{0xEE}))
	sched.Run()
	fmt.Printf("CAM-1 stream forgery:  thermostat write-blocked=%d\n",
		engines["Thermostat"].Stats().WritesBlocked)

	// HUB-1: a rogue device pushes firmware in Away mode; lock/camera read
	// filters only admit idFirmware in Maintenance.
	rogue := bus.MustAttach("RogueDongle")
	_ = rogue.Send(canbus.MustDataFrame(idFirmware, []byte{0xBA, 0xD0}))
	sched.Run()
	fmt.Printf("HUB-1 rogue firmware:  lock read-blocked=%d camera read-blocked=%d\n",
		engines["Lock"].Stats().ReadsBlocked, engines["Camera"].Stats().ReadsBlocked)

	// Legitimate operation still works, including the mode-gated firmware
	// path once the owner enters Maintenance.
	fmt.Println("\n== Legitimate flows ==")
	hub, _ := bus.Node("Hub")
	_ = hub.Send(canbus.MustDataFrame(idLockCmd, []byte{0x02}))
	sched.Run()
	fmt.Printf("hub unlock in Away:        lockOpen=%v\n", lockOpen)

	mode.set("Maintenance")
	before := engines["Lock"].Stats().ReadsGranted
	_ = hub.Send(canbus.MustDataFrame(idFirmware, []byte{0x01}))
	sched.Run()
	fmt.Printf("hub firmware in Maintenance: lock reads-granted +%d\n",
		engines["Lock"].Stats().ReadsGranted-before)
}

// switchableMode is a mutable hpe.ModeSource.
type switchableMode struct{ mode policy.Mode }

func (m *switchableMode) Mode() policy.Mode  { return m.mode }
func (m *switchableMode) set(mo policy.Mode) { m.mode = mo }
