package canbus

// ErrorState is the ISO 11898 error-confinement state of a node.
type ErrorState uint8

// Error confinement states.
const (
	// ErrorActive nodes participate fully and send active error flags.
	ErrorActive ErrorState = iota + 1
	// ErrorPassive nodes may transmit but signal errors passively.
	ErrorPassive
	// BusOff nodes are disconnected from the bus until reset.
	BusOff
)

// String returns the state name.
func (s ErrorState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	default:
		return "invalid"
	}
}

// Error-counter thresholds from ISO 11898-1 §12.
const (
	errorPassiveThreshold = 128
	busOffThreshold       = 256

	txErrorPenalty  = 8 // TEC increment on a transmit error
	successTxReward = 1 // TEC decrement on successful transmission
)

// ErrorCounters tracks a node's transmit error counter (TEC) and derives its
// confinement state. Bus errors are charged to the transmitter only, so the
// receive error counter of ISO 11898 would stay 0 and is not modelled. The
// zero value is an error-active node with a clean counter.
type ErrorCounters struct {
	tec int
}

// State derives the confinement state from the counter.
func (c *ErrorCounters) State() ErrorState {
	switch {
	case c.tec >= busOffThreshold:
		return BusOff
	case c.tec >= errorPassiveThreshold:
		return ErrorPassive
	default:
		return ErrorActive
	}
}

// OnTxError records a transmit error and returns the new state.
func (c *ErrorCounters) OnTxError() ErrorState {
	c.tec += txErrorPenalty
	return c.State()
}

// OnTxSuccess records a successful transmission.
func (c *ErrorCounters) OnTxSuccess() {
	if c.tec > 0 {
		c.tec -= successTxReward
	}
}
