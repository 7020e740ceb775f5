package core

// Pipeline fusion: narrow, stateless, single-input operators (map, filter,
// flatmap, project) run as compiled single-pass kernels by the engines (see
// internal/platform/driverutil/fuse.go) — a run of them on the same platform
// as one kernel, a lone one as a kernel of one step. The kind eligibility
// predicate lives here because both the optimizer and the engines need it,
// so cost estimation and execution always agree on what fuses.

// FusibleKind reports whether k is a narrow, stateless, single-input
// operator kind eligible for pipeline fusion. Distinct (stateful), MapPart
// (whole-partition), Sample (round-dependent) and all wide kinds are not.
func FusibleKind(k Kind) bool {
	switch k {
	case KindMap, KindFilter, KindFlatMap, KindProject:
		return true
	}
	return false
}
