package rtoss

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks bench/ against this tree. bench/ is a
// module of its own, so `go test ./...` never compiles it; without this
// test a PR that renames an internal symbol the benchmark imports stays
// green here and first fails inside the benchmark run that judges it.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "-C", "bench", ".")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench .: %v\n%s", err, out)
	}
}
