package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp identifies the machine and source a result came from.
type hostStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit of the source tree, or "src:" and a
	// digest of its Go sources when the tree is not a git checkout.
	Commit string `json:"commit"`
}

func stampHost(srcDir string) hostStamp {
	return hostStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(srcDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf reads HEAD from the tree's .git directory; without one it
// digests every .go and go.mod file under the tree.
func commitOf(dir string) string {
	if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if h, r, ok := strings.Cut(line, " "); ok && r == ref {
					return h
				}
			}
		}
	}
	var files []string
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // a partial digest still identifies the tree
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != dir {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(dir, p)
		fmt.Fprintf(h, "%s\x00", rel)
		io.Copy(h, f) //nolint:errcheck // see above
		f.Close()
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// warnHost prints a warning when this host differs from the one the
// committed reference numbers were measured on.
func warnHost(h hostStamp, refPath string) {
	b, err := os.ReadFile(refPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warning: no reference host (%v)\n", err)
		return
	}
	var doc struct {
		Host hostStamp `json:"host"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warning: reference host %s: %v\n", refPath, err)
		return
	}
	ref := doc.Host
	var diffs []string
	if h.GOMAXPROCS != ref.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d (reference %d)", h.GOMAXPROCS, ref.GOMAXPROCS))
	}
	if h.NumCPU != ref.NumCPU {
		diffs = append(diffs, fmt.Sprintf("NumCPU %d (reference %d)", h.NumCPU, ref.NumCPU))
	}
	if h.CPUModel != ref.CPUModel {
		diffs = append(diffs, fmt.Sprintf("CPU %q (reference %q)", h.CPUModel, ref.CPUModel))
	}
	if h.GoVersion != ref.GoVersion {
		diffs = append(diffs, fmt.Sprintf("Go %s (reference %s)", h.GoVersion, ref.GoVersion))
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: host differs from the one BENCHMARK.json's numbers came from: %s\n",
			strings.Join(diffs, "; "))
	}
}
