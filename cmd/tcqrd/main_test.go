package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tcqr/internal/tcsim"
)

// TestBadEngineFlagFailsStartup: an unknown -engine stops the daemon before
// it listens, naming the valid engines from the same table as the wire 400.
// The test binary re-executes itself to run the real main().
func TestBadEngineFlagFailsStartup(t *testing.T) {
	if os.Getenv("TCQRD_MAIN_TEST") != "" {
		os.Args = []string{"tcqrd", "-addr", "127.0.0.1:0", "-engine", "fp8"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestBadEngineFlagFailsStartup")
	cmd.Env = append(os.Environ(), "TCQRD_MAIN_TEST=1")
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("tcqrd -engine fp8: err=%v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), fmt.Sprint(tcsim.Kinds())) {
		t.Errorf("startup error should list %s, got:\n%s", fmt.Sprint(tcsim.Kinds()), out)
	}
}
