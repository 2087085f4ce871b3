package fault

// ModeByName resolves the canonical string name of a fault mode (the
// Mode.String() form used by scenario descriptions, the topology DSL and
// experiment reports) back to the Mode. The second result reports
// whether the name is known; "none" resolves to None.
func ModeByName(name string) (Mode, bool) {
	for m := None; m <= Corrupt; m++ {
		if m.String() == name {
			return m, true
		}
	}
	return None, false
}
