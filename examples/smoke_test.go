// Package examples_test smoke-runs every simulator example end to end, so
// a facade or testbed API change that breaks an example breaks the build's
// test run rather than the next reader's copy-paste.
package examples_test

import (
	"bytes"
	"os/exec"
	"testing"
	"time"
)

// simExamples are the deterministic, simulator-backed examples. livewire is
// excluded: it opens real TCP sockets, which the test environment may not
// allow and whose timing is not deterministic.
var simExamples = []string{
	"multihop",
	"quickstart",
	"tcpeviction",
	"udpburst",
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test compiles and runs every example; skipped in -short")
	}
	for _, name := range simExamples {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Dir = ".."
			var out, errb bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &errb
			start := time.Now()
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./examples/%s: %v\nstderr:\n%s", name, err, errb.String())
			}
			if out.Len() == 0 {
				t.Fatalf("example %s produced no output", name)
			}
			t.Logf("%s: %d bytes of output in %v", name, out.Len(), time.Since(start).Round(time.Millisecond))
		})
	}
}
