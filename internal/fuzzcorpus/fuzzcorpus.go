// Package fuzzcorpus writes the checked-in fuzz seed corpora. Every package
// with a seeded fuzz target keeps one generator test that hands its seeds to
// Write, so the file format and the regeneration switch live in one place.
package fuzzcorpus

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Write stores seeds as testdata/fuzz/<target>/seed-NN under the calling
// test's package directory, in the `go test fuzz v1` corpus format. It skips
// the test unless REGEN_FUZZ_CORPUS=1, so a corpus only changes deliberately.
func Write(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	if os.Getenv("REGEN_FUZZ_CORPUS") != "1" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz/" + target)
	}
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
