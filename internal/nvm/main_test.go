package nvm

import (
	"fmt"
	"os"
	"testing"
)

// TestMain fails the package when a test leaves an untracked device (a
// memory mapping) unclosed, naming the test that built it.
func TestMain(m *testing.M) {
	code := m.Run()
	if MappedBytes() != 0 {
		for _, leak := range Unclosed() {
			fmt.Fprintf(os.Stderr, "FAIL: %s was never closed\n", leak)
		}
		code = 1
	}
	os.Exit(code)
}
