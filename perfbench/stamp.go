package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// stamp identifies where and on what code a result was measured.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DataFS     string `json:"data_fs"`
}

func stampFor(p params) (stamp, error) {
	src, err := sourceHash(".")
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		Workload:   p.workload,
		Seed:       p.seed,
		Commit:     gitCommit(),
		SourceHash: src,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataFS:     fsType(p.out),
	}, nil
}

// gitCommit returns HEAD when the working directory is a git checkout,
// else "unknown" (an exported tree has no history; source_sha256 still
// identifies the code).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every .go file and go.mod under root, skipping
// hidden directories (build output lives in one).
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", f)
		_, err = io.Copy(h, r)
		r.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fsType names the file system holding dir, from statfs's magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
