package engine

import (
	"go/build"
	"path/filepath"
	"testing"
)

// TestSolversDoNotImportEngine guards the layering: a solver package
// simulates one replication on the stream it is handed, and its callers
// replicate that simulator through ReplicateReduce. So no non-test file of
// a solver package imports this one. The imports are read from the source
// with go/build, which runs no command.
func TestSolversDoNotImportEngine(t *testing.T) {
	const engine = "stochsched/internal/engine"
	for _, pkg := range []string{"bandit", "batch", "markov", "queueing", "restless"} {
		p, err := build.ImportDir(filepath.Join("..", pkg), 0)
		if err != nil {
			t.Fatalf("internal/%s: %v", pkg, err)
		}
		for _, pos := range p.ImportPos[engine] {
			t.Errorf("internal/%s imports %s at %s", pkg, engine, pos)
		}
	}
}
