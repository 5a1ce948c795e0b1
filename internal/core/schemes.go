package core

import (
	"fmt"
	"strings"

	"resilience/internal/recovery"
)

// SchemeEntry is one row of the scheme-name table: the presentation name,
// the other spellings a parser accepts, the spelling canonical cache
// keys use, the spec the names resolve to, and whether the scheme needs
// a checkpoint policy.
type SchemeEntry struct {
	Name        string
	Aliases     []string
	Canonical   string
	Spec        SchemeSpec
	Checkpoints bool
}

// schemeTable lists every recognized scheme in presentation order. Names
// and aliases are upper case; lookups upper-case their input.
var schemeTable = []SchemeEntry{
	{Name: "FF", Aliases: []string{""}, Canonical: "FF", Spec: SchemeSpec{Kind: FF}},
	{Name: "F0", Canonical: "F0", Spec: SchemeSpec{Kind: F0}},
	{Name: "FI", Canonical: "FI", Spec: SchemeSpec{Kind: FI}},
	{Name: "LI", Canonical: "LI", Spec: SchemeSpec{Kind: LI}},
	{Name: "LI-DVFS", Canonical: "LI-DVFS", Spec: SchemeSpec{Kind: LI, DVFS: true}},
	{Name: "LI(LU)", Aliases: []string{"LI-LU"}, Canonical: "LI-LU",
		Spec: SchemeSpec{Kind: LI, Construct: recovery.ConstructExact}},
	{Name: "LSI", Canonical: "LSI", Spec: SchemeSpec{Kind: LSI}},
	{Name: "LSI-DVFS", Canonical: "LSI-DVFS", Spec: SchemeSpec{Kind: LSI, DVFS: true}},
	{Name: "LSI(QR)", Aliases: []string{"LSI-QR"}, Canonical: "LSI-QR",
		Spec: SchemeSpec{Kind: LSI, Construct: recovery.ConstructExact}},
	{Name: "CR-M", Aliases: []string{"CRM"}, Canonical: "CR-M", Spec: SchemeSpec{Kind: CRM}, Checkpoints: true},
	{Name: "CR-D", Aliases: []string{"CRD"}, Canonical: "CR-D", Spec: SchemeSpec{Kind: CRD}, Checkpoints: true},
	{Name: "CR-2L", Aliases: []string{"CR2L"}, Canonical: "CR-2L", Spec: SchemeSpec{Kind: CR2L}, Checkpoints: true},
	{Name: "LCR", Canonical: "LCR", Spec: SchemeSpec{Kind: LCR}, Checkpoints: true},
	{Name: "RD", Aliases: []string{"DMR"}, Canonical: "RD", Spec: SchemeSpec{Kind: RD}},
	{Name: "TMR", Canonical: "TMR", Spec: SchemeSpec{Kind: TMR}},
	{Name: "ESR", Canonical: "ESR", Spec: SchemeSpec{Kind: ESR}},
}

// SchemeNames lists the presentation names in presentation order.
func SchemeNames() []string {
	names := make([]string, len(schemeTable))
	for i, row := range schemeTable {
		names[i] = row.Name
	}
	return names
}

// LookupScheme finds the row whose name or alias matches name, ignoring
// case and surrounding space.
func LookupScheme(name string) (SchemeEntry, bool) {
	u := strings.ToUpper(strings.TrimSpace(name))
	for _, row := range schemeTable {
		if row.Name == u {
			return row, true
		}
		for _, a := range row.Aliases {
			if a == u {
				return row, true
			}
		}
	}
	return SchemeEntry{}, false
}

// CanonicalSchemeName returns the canonical-key spelling of the row spec
// resolves to, matching on kind, construction and DVFS.
func CanonicalSchemeName(spec SchemeSpec) string {
	for _, row := range schemeTable {
		if row.Spec.Kind == spec.Kind && row.Spec.Construct == spec.Construct && row.Spec.DVFS == spec.DVFS {
			return row.Canonical
		}
	}
	return fmt.Sprintf("Kind(%d)", int(spec.Kind))
}

// Checkpoints reports whether the scheme needs a checkpoint policy.
func (s SchemeSpec) Checkpoints() bool {
	for _, row := range schemeTable {
		if row.Spec.Kind == s.Kind {
			return row.Checkpoints
		}
	}
	return false
}
