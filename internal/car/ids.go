// Package car instantiates the paper's connected-car case study (§V): the
// CAN topology of Fig. 2, the node internals of Fig. 3, the three car
// modes, the legitimate communication matrix, and the sixteen threat
// scenarios of Table I encoded as qualitative facts from which the STRIDE
// classes, DREAD scores and policy letters are computed.
package car

import (
	"repro/internal/policy"
)

// Node names of the Fig. 2 topology. These are the stations on the shared
// CAN bus; assets map onto them.
const (
	NodeEVECU        = "EV-ECU"
	NodeEPS          = "EPS"
	NodeEngine       = "Engine"
	NodeTelematics   = "Telematics"
	NodeInfotainment = "Infotainment"
	NodeDoorLocks    = "DoorLocks"
	NodeSafety       = "SafetyCritical"
	NodeSensors      = "Sensors"
	NodeDiagnostics  = "Diagnostics"
)

// AllNodes lists every station of the topology in Fig. 2 order.
var AllNodes = []string{
	NodeEVECU, NodeEPS, NodeEngine, NodeTelematics, NodeInfotainment,
	NodeDoorLocks, NodeSafety, NodeSensors, NodeDiagnostics,
}

// Car modes (Table I columns).
const (
	// ModeNormal is standard vehicle functionality (driving, parked).
	ModeNormal policy.Mode = "Normal"
	// ModeRemoteDiag is reserved for maintenance by the manufacturer or an
	// authorised engineer.
	ModeRemoteDiag policy.Mode = "RemoteDiag"
	// ModeFailSafe is reserved for emergency situations.
	ModeFailSafe policy.Mode = "FailSafe"
)

// AllModes lists the car modes.
var AllModes = []policy.Mode{ModeNormal, ModeRemoteDiag, ModeFailSafe}

// CAN message identifiers of the case study. Lower IDs carry
// higher-criticality (higher-priority) traffic, as is conventional.
const (
	// IDECUCommand disables/enables the propulsion mechanism. Legitimate
	// writers are the door locks (locked+alarmed), the safety-critical
	// module (crash) and the sensors (obstacle) — exactly the three
	// circumstances §V-A lists.
	IDECUCommand uint32 = 0x010
	// IDEPSCommand deactivates/engages electronic power steering.
	IDEPSCommand uint32 = 0x020
	// IDEngineCommand controls engine start/stop.
	IDEngineCommand uint32 = 0x030
	// IDSensorSpeed is the periodic speed broadcast.
	IDSensorSpeed uint32 = 0x100
	// IDSensorDynamics carries acceleration/brake/transmission readings.
	IDSensorDynamics uint32 = 0x101
	// IDObstacle is the sensors' obstacle report; the EV-ECU and the
	// safety module decide on it (sensors report, they do not command).
	IDObstacle uint32 = 0x102
	// IDVehicleStatus carries GPS and aggregate car status values.
	IDVehicleStatus uint32 = 0x110
	// IDDoorCommand locks/unlocks the doors.
	IDDoorCommand uint32 = 0x200
	// IDDoorStatus is the door state broadcast.
	IDDoorStatus uint32 = 0x210
	// IDTrackingReport is the telematics anti-theft tracking report.
	IDTrackingReport uint32 = 0x300
	// IDModemControl enables/disables the cellular modem.
	IDModemControl uint32 = 0x310
	// IDFailSafeTrigger signals a safety-critical event (crash, emergency).
	IDFailSafeTrigger uint32 = 0x500
	// IDAlarmControl arms/disarms the alarm and locking system.
	IDAlarmControl uint32 = 0x510
	// IDFirmwareUpdate is the firmware update channel (diagnostic mode only).
	IDFirmwareUpdate uint32 = 0x600
	// IDDiagRequest is the OBD-II style diagnostic request.
	IDDiagRequest uint32 = 0x7DF
)

// Message describes one catalog entry: who legitimately writes it, who
// legitimately reads it, and in which modes the flow is required. The
// policy model (least privilege) is generated from this catalog.
type Message struct {
	// ID is the CAN identifier.
	ID uint32
	// Name is a short label.
	Name string
	// Writers lists nodes permitted to transmit the message.
	Writers []string
	// Readers lists nodes that need to receive the message.
	Readers []string
	// Modes restricts the flow to car modes (empty = all modes).
	Modes []policy.Mode
}

// Catalog is the full legitimate communication catalog of the connected
// car. Everything outside this catalog is denied under the derived policy.
var Catalog = []Message{
	{
		// Propulsion may be commanded only by the door-lock module (car
		// locked and alarmed) and the safety module (crash response) — the
		// circumstances §V-A lists. Sensors *report* via IDObstacle; the
		// decision stays with the ECU. Readable in Normal mode only: in
		// Fail-safe the protection must not be overridable (Table I row 4).
		ID: IDECUCommand, Name: "ecu-command",
		Writers: []string{NodeDoorLocks, NodeSafety},
		Readers: []string{NodeEVECU},
		Modes:   []policy.Mode{ModeNormal},
	},
	{
		ID: IDEPSCommand, Name: "eps-command",
		Writers: []string{NodeEVECU, NodeSafety},
		Readers: []string{NodeEPS},
	},
	{
		ID: IDEngineCommand, Name: "engine-command",
		Writers: []string{NodeEVECU, NodeSafety},
		Readers: []string{NodeEngine},
	},
	{
		ID: IDSensorSpeed, Name: "sensor-speed",
		Writers: []string{NodeSensors},
		Readers: []string{NodeEVECU, NodeEPS, NodeEngine, NodeInfotainment, NodeTelematics, NodeSafety, NodeDoorLocks},
	},
	{
		ID: IDSensorDynamics, Name: "sensor-dynamics",
		Writers: []string{NodeSensors},
		Readers: []string{NodeEVECU, NodeEngine, NodeSafety},
	},
	{
		ID: IDObstacle, Name: "obstacle-report",
		Writers: []string{NodeSensors},
		Readers: []string{NodeEVECU, NodeSafety},
	},
	{
		ID: IDVehicleStatus, Name: "vehicle-status",
		Writers: []string{NodeEVECU},
		Readers: []string{NodeInfotainment, NodeTelematics, NodeDiagnostics},
	},
	{
		// Remote lock/unlock is a Normal-mode function; in Fail-safe the
		// locks obey only the fail-safe trigger (Table I row 14: a lock
		// command arriving during an accident must be refused).
		ID: IDDoorCommand, Name: "door-command",
		Writers: []string{NodeTelematics},
		Readers: []string{NodeDoorLocks},
		Modes:   []policy.Mode{ModeNormal},
	},
	{
		ID: IDDoorStatus, Name: "door-status",
		Writers: []string{NodeDoorLocks},
		Readers: []string{NodeEVECU, NodeTelematics, NodeSafety, NodeInfotainment},
	},
	{
		ID: IDTrackingReport, Name: "tracking-report",
		Writers: []string{NodeTelematics},
		Readers: []string{NodeDiagnostics},
	},
	{
		ID: IDModemControl, Name: "modem-control",
		Writers: []string{NodeDiagnostics},
		Readers: []string{NodeTelematics},
		Modes:   []policy.Mode{ModeRemoteDiag},
	},
	{
		// Only the safety module may raise the fail-safe trigger; sensors
		// feed it observations through IDObstacle (Table I row 15: a forged
		// trigger unlocks the vehicle).
		ID: IDFailSafeTrigger, Name: "fail-safe-trigger",
		Writers: []string{NodeSafety},
		Readers: []string{NodeEVECU, NodeDoorLocks, NodeTelematics, NodeEngine, NodeEPS},
	},
	{
		ID: IDAlarmControl, Name: "alarm-control",
		Writers: []string{NodeDoorLocks, NodeTelematics},
		Readers: []string{NodeSafety},
	},
	{
		ID: IDFirmwareUpdate, Name: "firmware-update",
		Writers: []string{NodeDiagnostics},
		Readers: []string{NodeEVECU, NodeEPS, NodeEngine, NodeTelematics, NodeInfotainment, NodeDoorLocks, NodeSafety},
		Modes:   []policy.Mode{ModeRemoteDiag},
	},
	{
		ID: IDDiagRequest, Name: "diag-request",
		Writers: []string{NodeDiagnostics},
		Readers: []string{NodeEVECU, NodeEPS, NodeEngine, NodeTelematics, NodeInfotainment, NodeDoorLocks, NodeSafety, NodeSensors},
		Modes:   []policy.Mode{ModeRemoteDiag},
	},
}
