//go:build unix

package blockio

// LiveMappings reports how many FileDevice mappings are mapped: made by
// a View and not yet unmapped by their cleanup. The external tests read
// it to check that retired index files do not stay mapped.
func LiveMappings() int64 { return liveMappings.Load() }
