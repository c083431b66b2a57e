package controlapi

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/harness"
)

// TestMain doubles as the worker binary, as cmd/pybenchd does: a campaign
// with "isolate" re-execs this test binary with -worker for every
// invocation attempt.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-worker" {
		if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "controlapi test -worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
