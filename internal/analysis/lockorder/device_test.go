package lockorder

import (
	"testing"

	"temporalrank/internal/analysis/load"
)

// TestArmedOnRealDevice guards the analyzer's self-scoping: it checks
// a package only when that package's Device interface has every
// allocation- and data-path method, so a method dropped from
// blockio.Device but still listed here would silently switch the
// lock-order check off.
func TestArmedOnRealDevice(t *testing.T) {
	units, err := load.NewLoader("../../..").Load([]string{"temporalrank/internal/blockio"})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.IsXTest {
			continue
		}
		if deviceInterface(u.Types) == nil {
			t.Fatalf("lockorder does not recognise %s.Device: its method set lacks one of %v / %v", u.ImportPath, allocPath, dataPath)
		}
		return
	}
	t.Fatal("internal/blockio not loaded")
}
