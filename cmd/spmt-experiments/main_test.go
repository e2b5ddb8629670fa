package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv makes the test binary act as the spmt-experiments command,
// so the golden test checks the bytes the command itself prints.
const runMainEnv = "SPMT_EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFiguresGolden pins every figure in absolute terms: the output of
// `spmt-experiments -size test -csv`, run at the default -parallel
// (GOMAXPROCS), must equal testdata/figures_size_test.csv byte for
// byte. The parity suites only compare two runs of the current code;
// this catches a change that moves simulation results everywhere at
// once. Updating the golden file is a deliberate edit:
//
//	go run ./cmd/spmt-experiments -size test -csv > cmd/spmt-experiments/testdata/figures_size_test.csv
func TestFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full figure sweep is too slow under the race detector")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figures_size_test.csv"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-size", "test", "-csv")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("spmt-experiments: %v\n%s", err, stderr.Bytes())
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("figure output differs from the golden file at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
