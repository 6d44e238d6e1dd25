package stride

// Effects captures what a threat scenario does to the system, in
// implementation-neutral terms. Classify derives the STRIDE set from these
// facts, so the category string in a reproduced Table I row is computed from
// the scenario description rather than transcribed.
type Effects struct {
	// ForgesIdentity: the attacker impersonates a legitimate entity, e.g.
	// sends CAN frames under another node's identifier.
	ForgesIdentity bool
	// ModifiesData: the attacker alters data, firmware or configuration.
	ModifiesData bool
	// DeniesAction: the attacker can perform actions without attribution
	// (no reliable audit trail ties the action to its origin).
	DeniesAction bool
	// DisclosesInfo: the attacker learns information they should not.
	DisclosesInfo bool
	// DisruptsService: the attack degrades or disables a function.
	DisruptsService bool
	// EscalatesPrivilege: the attacker gains a higher control level.
	EscalatesPrivilege bool
}

// Classify maps scenario effects onto STRIDE categories.
func Classify(e Effects) Set {
	var s Set
	if e.ForgesIdentity {
		s = s.Add(Spoofing)
	}
	if e.ModifiesData {
		s = s.Add(Tampering)
	}
	if e.DeniesAction {
		s = s.Add(Repudiation)
	}
	if e.DisclosesInfo {
		s = s.Add(InformationDisclosure)
	}
	if e.DisruptsService {
		s = s.Add(DenialOfService)
	}
	if e.EscalatesPrivilege {
		s = s.Add(ElevationOfPrivilege)
	}
	return s
}
