package canbus

// AcceptanceFilter is the mask/code filter a CAN controller applies to
// received standard identifiers. A frame passes when it is a standard frame
// and (id & Mask) == (Code & Mask); no filter accepts an extended frame.
//
// On production controllers these filters are configured by firmware, which
// is exactly why the paper argues they are insufficient: compromised
// firmware can reprogram them (§V-B.2). The simulation models that attack in
// Controller.CompromiseFilters.
type AcceptanceFilter struct {
	// Mask selects which identifier bits are compared.
	Mask uint32
	// Code gives the expected values of the selected bits.
	Code uint32
}

// Matches reports whether the frame passes this filter.
func (a AcceptanceFilter) Matches(f Frame) bool {
	if f.Extended {
		return false
	}
	return f.ID&a.Mask == a.Code&a.Mask
}

// ExactFilter builds a filter matching exactly one standard identifier.
func ExactFilter(id uint32) AcceptanceFilter {
	return AcceptanceFilter{Mask: MaxStandardID, Code: id}
}

// Verdict is an inline filter's decision on a single frame.
type Verdict uint8

// Verdict values. Following the guide's advice enums start at 1 so the zero
// value is detectably invalid.
const (
	// Grant lets the frame through.
	Grant Verdict = iota + 1
	// Block silently discards the frame.
	Block
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Grant:
		return "grant"
	case Block:
		return "block"
	default:
		return "invalid"
	}
}

// Direction distinguishes the two filter paths of Fig. 4.
type Direction uint8

// Direction values.
const (
	// Read is the inbound path: bus -> transceiver -> filter -> controller.
	Read Direction = iota + 1
	// Write is the outbound path: controller -> filter -> transceiver -> bus.
	Write
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "invalid"
	}
}

// InlineFilter is the seam between a node's controller and transceiver where
// the hardware-based policy engine is inserted. Implementations must be
// side-effect free with respect to the frame: they decide, they do not
// rewrite.
type InlineFilter interface {
	// Decide returns the verdict for a frame travelling in the given direction.
	Decide(dir Direction, f Frame) Verdict
}

// PermissiveFilter grants everything; it models a node without an HPE.
type PermissiveFilter struct{}

// Decide implements InlineFilter by always granting.
func (PermissiveFilter) Decide(Direction, Frame) Verdict { return Grant }

var _ InlineFilter = PermissiveFilter{}
