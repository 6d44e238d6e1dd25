// Package stride implements the STRIDE threat-categorisation model used by
// the paper's threat identification step (Fig. 1, "Threat Identification"):
// Spoofing, Tampering, Repudiation, Information disclosure, Denial of
// service, Elevation of privilege.
//
// A threat maps to a Set of categories; Table I of the paper renders sets as
// compact letter strings such as "STD" or "STIDE", which Parse and String
// round-trip.
package stride

import (
	"fmt"
	"strings"
)

// Category is one STRIDE threat category, represented as a bit flag so a
// threat can carry several categories at once.
type Category uint8

// STRIDE categories. The declaration order matches the acronym, which is
// also the canonical rendering order used by the paper's Table I.
const (
	// Spoofing: illegitimately assuming another identity (e.g. forged CAN IDs).
	Spoofing Category = 1 << iota
	// Tampering: unauthorised modification of data or code.
	Tampering
	// Repudiation: denying having performed an action.
	Repudiation
	// InformationDisclosure: exposing information to unauthorised parties.
	InformationDisclosure
	// DenialOfService: degrading or preventing legitimate use.
	DenialOfService
	// ElevationOfPrivilege: gaining capabilities beyond those granted.
	ElevationOfPrivilege
)

// All lists the categories in canonical order.
var All = []Category{
	Spoofing, Tampering, Repudiation,
	InformationDisclosure, DenialOfService, ElevationOfPrivilege,
}

// letters maps categories to their Table I letters.
var letters = map[Category]byte{
	Spoofing:              'S',
	Tampering:             'T',
	Repudiation:           'R',
	InformationDisclosure: 'I',
	DenialOfService:       'D',
	ElevationOfPrivilege:  'E',
}

// longNames maps categories to their full names.
var longNames = map[Category]string{
	Spoofing:              "Spoofing",
	Tampering:             "Tampering",
	Repudiation:           "Repudiation",
	InformationDisclosure: "Information Disclosure",
	DenialOfService:       "Denial of Service",
	ElevationOfPrivilege:  "Elevation of Privilege",
}

// Letter returns the single-letter abbreviation ('S', 'T', ...).
func (c Category) Letter() byte { return letters[c] }

// Name returns the category's full name, or "invalid" for unknown values.
func (c Category) Name() string {
	if n, ok := longNames[c]; ok {
		return n
	}
	return "invalid"
}

// String implements fmt.Stringer for a single category.
func (c Category) String() string { return c.Name() }

// Set is a combination of STRIDE categories.
type Set uint8

// Has reports whether the set contains category c.
func (s Set) Has(c Category) bool { return s&Set(c) != 0 }

// Add returns the set with category c included.
func (s Set) Add(c Category) Set { return s | Set(c) }

// Empty reports whether no categories are present.
func (s Set) Empty() bool { return s == 0 }

// String renders the set in Table I letter notation ("STD", "STIDE", ...).
// The empty set renders as "-".
func (s Set) String() string {
	if s.Empty() {
		return "-"
	}
	var b strings.Builder
	for _, c := range All {
		if s.Has(c) {
			b.WriteByte(c.Letter())
		}
	}
	return b.String()
}

// Parse reads Table I letter notation into a Set. Parsing is
// case-insensitive; duplicate letters are tolerated; "-" or "" is the empty
// set. Unknown letters yield an error.
func Parse(s string) (Set, error) {
	var set Set
	if s == "" || s == "-" {
		return set, nil
	}
	for i := 0; i < len(s); i++ {
		switch ch := s[i] | 0x20; ch { // lower-case fold
		case 's':
			set = set.Add(Spoofing)
		case 't':
			set = set.Add(Tampering)
		case 'r':
			set = set.Add(Repudiation)
		case 'i':
			set = set.Add(InformationDisclosure)
		case 'd':
			set = set.Add(DenialOfService)
		case 'e':
			set = set.Add(ElevationOfPrivilege)
		default:
			return 0, fmt.Errorf("stride: unknown category letter %q", s[i])
		}
	}
	return set, nil
}
