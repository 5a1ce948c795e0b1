package resilience

import (
	"fmt"
	"strings"

	"resilience/internal/core"
)

// SchemeNames lists the recognized scheme names in presentation order.
func SchemeNames() []string { return core.SchemeNames() }

// ParseScheme resolves a scheme name (case-insensitive; empty means FF)
// to its spec.
func ParseScheme(name string) (core.SchemeSpec, error) {
	if row, ok := core.LookupScheme(name); ok {
		return row.Spec, nil
	}
	return core.SchemeSpec{}, fmt.Errorf("resilience: unknown scheme %q (known: %s)",
		name, strings.Join(SchemeNames(), ", "))
}
