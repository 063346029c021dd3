package temporalrank_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the benchmark. bench/ is a module of
// its own (it imports temporalrank/internal/... through a replace
// directive), so `go build ./... && go test ./...` from the root never
// compiles it; without this test, renaming or re-typing a product
// symbol it imports would only surface when the benchmark is next run.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
