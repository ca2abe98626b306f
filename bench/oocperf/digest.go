package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oocnvm/internal/ssd"
)

// digestSeed is the seed whose digests are committed.
const digestSeed = 42

// digestDir is where -update-digest writes, relative to the repository
// root the benchmark runs from.
const digestDir = "bench/oocperf/testdata"

//go:embed testdata/*.digest
var digestFiles embed.FS

// digest is the SHA-256 of every cell's result printed with %#v, in matrix
// order. Any change to any simulated statistic changes it.
func digest(results []ssd.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%#v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestFile(workload string) string {
	return fmt.Sprintf("%s.seed%d.digest", workload, digestSeed)
}

// committedDigest returns the seed-42 digest committed for a workload.
func committedDigest(workload string) (string, error) {
	b, err := digestFiles.ReadFile("testdata/" + digestFile(workload))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// writeDigest records a workload's seed-42 digest. Only a change to the
// benchmark itself (its workloads or options) may do this; a change that
// claims to make the simulator faster must leave every digest unchanged.
func writeDigest(workload, d string) (string, error) {
	path := filepath.Join(digestDir, digestFile(workload))
	return path, os.WriteFile(path, []byte(d+"\n"), 0o644)
}
