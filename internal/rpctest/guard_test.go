package rpctest_test

import (
	"os"
	"testing"

	"scalerpc/internal/memory"
)

// TestMain runs the package's tests with memory.Guard on, so a write
// through a read view of an unwritten page fails the test that made it.
func TestMain(m *testing.M) {
	memory.Guard = true
	os.Exit(m.Run())
}
