package car

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Command opcodes carried in the first payload byte of command messages.
const (
	// OpDisable disables the addressed subsystem (propulsion, EPS, engine,
	// modem) or unlocks/disarms depending on the message.
	OpDisable byte = 0x01
	// OpEnable (re-)enables the addressed subsystem.
	OpEnable byte = 0x02
	// OpLock locks the doors / arms the alarm.
	OpLock byte = 0x01
	// OpUnlock unlocks the doors / disarms the alarm.
	OpUnlock byte = 0x02
)

// State is the observable vehicle state the attack harness measures. All
// fields reflect what the component processors believe, i.e. the effect of
// every frame that survived filtering.
type State struct {
	// Propulsion reports whether the EV-ECU propulsion mechanism is enabled.
	Propulsion bool
	// EPSActive reports whether power steering assistance is active.
	EPSActive bool
	// EngineRunning reports whether the engine is running.
	EngineRunning bool
	// ModemEnabled reports whether the telematics modem is operational.
	ModemEnabled bool
	// TrackingActive reports whether anti-theft tracking reports flow.
	TrackingActive bool
	// DoorsLocked reports the central locking state.
	DoorsLocked bool
	// AlarmArmed reports the alarm state.
	AlarmArmed bool
	// FailSafeTriggered reports whether a fail-safe event was processed.
	FailSafeTriggered bool
	// ActualSpeed is the ground-truth speed from the sensor cluster.
	ActualSpeed uint16
	// DisplayedSpeed is the speed the infotainment display shows.
	DisplayedSpeed uint16
	// FirmwareModified reports whether any ECU accepted a firmware-update
	// frame (the CONN-1 / INFO-1 modification channel).
	FirmwareModified bool
	// ExfilReports counts forged tracking reports that reached the
	// diagnostic backend (the CONN-2 privacy attack's exfiltration path).
	ExfilReports int
}

// Car wires the Fig. 2 topology onto a simulated bus and gives every node
// the behaviour needed to make Table I's attacks observable. It implements
// hpe.ModeSource so deployed policy engines follow mode switches.
//
// A Car shares its Bus's single-owner execution model: all methods must be
// called from the goroutine driving the owning scheduler (or from whichever
// goroutine currently owns the vehicle, with ownership handed over through a
// synchronising operation). Dropping the former internal lock removed a
// mutex acquisition from every policy decision (Mode) and every processor
// reaction (state mutation) on the simulation hot path.
type Car struct {
	sched *sim.Scheduler
	bus   *canbus.Bus

	mode  policy.Mode
	state State

	// Station handles and prebuilt frames for the hot helper paths: the
	// periodic traffic and the functional probes re-send identical frames
	// thousands of times per fleet sweep, so they are constructed once here
	// instead of per call (Node.Send clones into the transmit queue, so
	// sharing the backing payloads is safe).
	sensors, safety, telematics, doorLocks *canbus.Node

	lockFrame     canbus.Frame
	unlockFrame   canbus.Frame
	armFrame      canbus.Frame
	crashFrame    canbus.Frame
	obstacleFrame canbus.Frame
	restoreFrame  canbus.Frame
	dynamicsFrame canbus.Frame
	trackingFrame canbus.Frame
}

// initialState is the observable state of a freshly built car: propulsion
// enabled, engine running, doors unlocked, alarm disarmed, modem on,
// tracking active.
func initialState() State {
	return State{
		Propulsion:     true,
		EPSActive:      true,
		EngineRunning:  true,
		ModemEnabled:   true,
		TrackingActive: true,
	}
}

// Config parameterises a Car: it is its bus's configuration (error
// injection rate and seed), the only part of a car that takes any.
type Config = canbus.Config

// New builds the car: scheduler, bus, all Fig. 2 nodes with their
// acceptance filters (per the message catalog) and processor behaviours.
// The car starts in Normal mode: propulsion enabled, engine running, doors
// unlocked, alarm disarmed, modem on, tracking active.
func New(cfg Config) (*Car, error) {
	sched := &sim.Scheduler{}
	bus := canbus.New(sched, cfg)
	c := &Car{
		sched: sched,
		bus:   bus,
		mode:  ModeNormal,
		state: initialState(),
	}
	for _, name := range AllNodes {
		node, err := bus.Attach(name)
		if err != nil {
			return nil, err
		}
		c.configureNode(node)
	}
	bus.MarkPristine()
	c.sensors, _ = bus.Node(NodeSensors)
	c.safety, _ = bus.Node(NodeSafety)
	c.telematics, _ = bus.Node(NodeTelematics)
	c.doorLocks, _ = bus.Node(NodeDoorLocks)
	c.lockFrame = canbus.MustDataFrame(IDDoorCommand, []byte{OpLock})
	c.unlockFrame = canbus.MustDataFrame(IDDoorCommand, []byte{OpUnlock})
	c.armFrame = canbus.MustDataFrame(IDAlarmControl, []byte{OpLock})
	c.crashFrame = canbus.MustDataFrame(IDFailSafeTrigger, []byte{0x01})
	c.obstacleFrame = canbus.MustDataFrame(IDObstacle, []byte{0x01})
	c.restoreFrame = canbus.MustDataFrame(IDECUCommand, []byte{OpEnable})
	c.dynamicsFrame = canbus.MustDataFrame(IDSensorDynamics, []byte{0x10, 0x20, 0x30})
	c.trackingFrame = canbus.MustDataFrame(IDTrackingReport, []byte{0x01})
	return c, nil
}

// Reset restores the car to the state New(cfg) would return, without
// rebuilding anything: the scheduler drains in place, the bus snaps back to
// its pristine Fig. 2 topology (nodes attached since construction — e.g. an
// outside attacker — are discarded, inline filters and acceptance filters
// restored, counters zeroed, RNG reseeded from cfg), the mode returns to
// Normal and the observable state to its power-on values. Allocation-free on
// the steady state, which is what lets fleet workers reuse one vehicle for
// thousands of scenario runs.
func (c *Car) Reset(cfg Config) {
	c.sched.Reset()
	c.bus.Reset(cfg)
	c.mode = ModeNormal
	c.state = initialState()
}

// Snapshot captures the full mutable state of a quiescent car: the
// scheduler counters, the bus state (topology counters, filters, RNG
// position) and the vehicle-level mode and observable state. One Snapshot
// value is reusable across captures — the attack arena holds one per
// checkpoint and overwrites it in place.
type Snapshot struct {
	sched sim.SchedulerSnapshot
	bus   canbus.BusSnapshot
	mode  policy.Mode
	state State
}

// Quiescent reports whether the car satisfies Snapshot's preconditions: the
// scheduler drained and the bus idle with its pristine topology. The attack
// arena probes it before capturing so a violated prefix contract surfaces as
// a typed error the sweep supervisor can quarantine, not a process panic.
func (c *Car) Quiescent() bool { return c.sched.Quiescent() && c.bus.Quiescent() }

// Snapshot captures the car's state into dst for a later RestoreFrom. The
// car must be quiescent: the scheduler drained (Scheduler().Run() returned)
// and the bus idle with its pristine topology — the state any scenario
// prefix leaves behind. Panics otherwise (see sim.Scheduler.Snapshot and
// canbus.Bus.Snapshot).
func (c *Car) Snapshot(dst *Snapshot) {
	dst.sched = c.sched.Snapshot()
	c.bus.Snapshot(&dst.bus)
	dst.mode = c.mode
	dst.state = c.state
}

// RestoreFrom rewinds the car to a state captured by Snapshot: the
// scheduler's clock and counters, the bus's full state (post-capture nodes
// discarded exactly as Reset discards them), the mode and the observable
// state. A restored car continues byte-identically to one that replayed the
// captured prefix from a fresh Reset — the equivalence the attack arena's
// prefix checkpointing is built on and its property tests assert.
func (c *Car) RestoreFrom(src *Snapshot) {
	c.sched.RestoreFrom(src.sched)
	c.bus.RestoreFrom(&src.bus)
	c.mode = src.mode
	c.state = src.state
}

// MustNew is New that panics on error; topology construction only fails on
// programming errors.
func MustNew(cfg Config) *Car {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Scheduler returns the simulation scheduler.
func (c *Car) Scheduler() *sim.Scheduler { return c.sched }

// Bus returns the underlying CAN bus.
func (c *Car) Bus() *canbus.Bus { return c.bus }

// Node returns the named station.
func (c *Car) Node(name string) (*canbus.Node, bool) { return c.bus.Node(name) }

// Mode implements hpe.ModeSource.
func (c *Car) Mode() policy.Mode { return c.mode }

// SetMode switches the car's operating mode (Normal / RemoteDiag / FailSafe).
func (c *Car) SetMode(m policy.Mode) { c.mode = m }

// State returns a snapshot of the vehicle state.
func (c *Car) State() State { return c.state }

// mutate applies fn to the state.
func (c *Car) mutate(fn func(*State)) { fn(&c.state) }

// configureNode installs the acceptance filters (from the catalog's reader
// lists) and the processor behaviour for one station.
func (c *Car) configureNode(node *canbus.Node) {
	name := node.Name()
	var filters []canbus.AcceptanceFilter
	for _, m := range Catalog {
		for _, r := range m.Readers {
			if r == name {
				filters = append(filters, canbus.ExactFilter(m.ID))
			}
		}
	}
	ctrl := node.Controller()
	ctrl.SetFilters(filters...)
	ctrl.SetHandler(c.handlerFor(name))
}

// handlerFor returns the processor behaviour of a station: how it reacts to
// each accepted frame. These reactions are what make Table I's attacks
// observable in State.
func (c *Car) handlerFor(name string) canbus.Handler {
	switch name {
	case NodeEVECU:
		return func(f canbus.Frame) {
			switch f.ID {
			case IDECUCommand:
				if len(f.Data) > 0 {
					c.mutate(func(s *State) { s.Propulsion = f.Data[0] != OpDisable })
				}
			case IDObstacle:
				if len(f.Data) > 0 && f.Data[0] == 0x01 {
					// Emergency stop on an imminent-obstacle report.
					c.mutate(func(s *State) { s.Propulsion = false })
				}
			case IDSensorSpeed:
				if len(f.Data) >= 2 {
					c.mutate(func(s *State) { s.ActualSpeed = binary.BigEndian.Uint16(f.Data) })
				}
			case IDFailSafeTrigger:
				c.mutate(func(s *State) {
					s.FailSafeTriggered = true
					s.Propulsion = false // crash response: cut propulsion
				})
			case IDFirmwareUpdate:
				c.mutate(func(s *State) { s.FirmwareModified = true })
			}
		}
	case NodeEPS:
		return func(f canbus.Frame) {
			if f.ID == IDEPSCommand && len(f.Data) > 0 {
				c.mutate(func(s *State) { s.EPSActive = f.Data[0] != OpDisable })
			}
		}
	case NodeEngine:
		return func(f canbus.Frame) {
			if f.ID == IDEngineCommand && len(f.Data) > 0 {
				c.mutate(func(s *State) { s.EngineRunning = f.Data[0] != OpDisable })
			}
		}
	case NodeTelematics:
		return func(f canbus.Frame) {
			switch f.ID {
			case IDModemControl:
				if len(f.Data) > 0 {
					c.mutate(func(s *State) {
						s.ModemEnabled = f.Data[0] != OpDisable
						if !s.ModemEnabled {
							s.TrackingActive = false
						}
					})
				}
			case IDFirmwareUpdate:
				c.mutate(func(s *State) { s.FirmwareModified = true })
			}
		}
	case NodeInfotainment:
		return func(f canbus.Frame) {
			if f.ID == IDVehicleStatus && len(f.Data) >= 2 {
				c.mutate(func(s *State) { s.DisplayedSpeed = binary.BigEndian.Uint16(f.Data) })
			}
		}
	case NodeDoorLocks:
		return func(f canbus.Frame) {
			if f.ID == IDDoorCommand && len(f.Data) > 0 {
				switch f.Data[0] {
				case OpLock:
					c.mutate(func(s *State) { s.DoorsLocked = true })
				case OpUnlock:
					c.mutate(func(s *State) { s.DoorsLocked = false })
				}
			}
			if f.ID == IDFailSafeTrigger {
				// Crash response: unlock for rescue access.
				c.mutate(func(s *State) { s.DoorsLocked = false })
			}
		}
	case NodeSafety:
		return func(f canbus.Frame) {
			if f.ID == IDAlarmControl && len(f.Data) > 0 {
				switch f.Data[0] {
				case OpLock:
					c.mutate(func(s *State) { s.AlarmArmed = true })
				case OpUnlock:
					c.mutate(func(s *State) { s.AlarmArmed = false })
				}
			}
		}
	case NodeDiagnostics:
		return func(f canbus.Frame) {
			// Forged tracking reports carry the exfiltration marker 0xEE;
			// counting them measures the CONN-2 privacy attack.
			if f.ID == IDTrackingReport && len(f.Data) > 0 && f.Data[0] == exfilMarker {
				c.mutate(func(s *State) { s.ExfilReports++ })
			}
		}
	default:
		return nil
	}
}

// send transmits a frame from a named station.
func (c *Car) send(from string, id uint32, data ...byte) error {
	node, ok := c.bus.Node(from)
	if !ok {
		return fmt.Errorf("car: unknown node %q", from)
	}
	f, err := canbus.NewDataFrame(id, data)
	if err != nil {
		return err
	}
	return node.Send(f)
}

// StartTraffic schedules the periodic legitimate traffic of the car over
// the given horizon (relative to the current virtual time): sensor
// broadcasts, the EV-ECU vehicle-status message and telematics tracking
// reports. speed is the simulated vehicle speed. The frames are built once
// and shared by every tick (Send clones into the transmit queue).
func (c *Car) StartTraffic(period, horizon time.Duration, speed uint16) {
	var speedBuf [2]byte
	binary.BigEndian.PutUint16(speedBuf[:], speed)
	speedFrame := canbus.MustDataFrame(IDSensorSpeed, speedBuf[:])
	statusFrame := canbus.MustDataFrame(IDVehicleStatus, []byte{speedBuf[0], speedBuf[1], 0x00})
	evecu, _ := c.bus.Node(NodeEVECU)
	tick := func(time.Duration) {
		// Sensors broadcast speed and dynamics.
		_ = c.sensors.Send(speedFrame)
		_ = c.sensors.Send(c.dynamicsFrame)
		// EV-ECU publishes the vehicle status consumed by infotainment.
		_ = evecu.Send(statusFrame)
		// Telematics uploads a tracking report while the modem is up.
		if c.state.ModemEnabled {
			_ = c.telematics.Send(c.trackingFrame)
		}
	}
	for at := period; at <= horizon; at += period {
		c.sched.After(at, tick)
	}
}

// Legitimate control actions, used by tests and scenarios to confirm the
// policy model does not break required functionality (no false positives).

// LockDoors issues a remote lock via telematics.
func (c *Car) LockDoors() error { return c.telematics.Send(c.lockFrame) }

// UnlockDoors issues a remote unlock via telematics.
func (c *Car) UnlockDoors() error { return c.telematics.Send(c.unlockFrame) }

// ArmAlarm arms the alarm from the door-lock module.
func (c *Car) ArmAlarm() error { return c.doorLocks.Send(c.armFrame) }

// TriggerCrash raises the fail-safe trigger from the safety module, as a
// genuine crash would.
func (c *Car) TriggerCrash() error { return c.safety.Send(c.crashFrame) }

// exfilMarker tags forged tracking reports used by the privacy attack.
const exfilMarker byte = 0xEE

// ObstacleStop sends the sensors' imminent-obstacle report, which makes the
// EV-ECU cut propulsion — one of the legitimate disablement circumstances
// of §V-A (approaching a stationary object when parking).
func (c *Car) ObstacleStop() error { return c.sensors.Send(c.obstacleFrame) }

// RestorePropulsion re-enables propulsion from the safety module.
func (c *Car) RestorePropulsion() error { return c.safety.Send(c.restoreFrame) }
