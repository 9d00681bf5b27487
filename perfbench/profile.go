package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuBuckets are the cpu.* shares: one per robustmap module that shows
// up in profiles, plus the runtime and standard-library costs the
// ROADMAP names. Everything else falls into "other".
var cpuBuckets = []string{
	"record", "btree", "storage", "simclock", "iomodel", "bitmap", "mdam", "catalog", "core",
	"exec", "sort", "malloc", "gc",
	"optimizer", "datagen", "plan", "spec", "engine",
	"service", "httpapi", "fabric", "mapstore", "json", "net", "other",
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "robustmap/internal/"

// mallocFuncs and gcFuncs are runtime function-name prefixes charged to
// allocation and to garbage collection.
var (
	mallocFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.nextFreeFast", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*mspan).nextFreeIndex",
		"runtime.memclrNoHeapPointers", "runtime.heapSetType", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.roundupsize", "runtime.deductAssistCredit",
		"runtime.(*fixalloc)", "runtime.(*pageAlloc)", "runtime.sysAlloc", "runtime.sysUsed",
	}
	gcFuncs = []string{
		"runtime.gc", "runtime.scanobject", "runtime.greyobject", "runtime.markroot",
		"runtime.scanblock", "runtime.scanstack", "runtime.scanframe", "runtime.(*gcWork)",
		"runtime.(*gcBits)", "runtime.findObject", "runtime.heapBits", "runtime.typePointers",
		"runtime.(*mspan).typePointers", "runtime.(*mspan).sweep", "runtime.sweepone",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.(*sweepLocked)", "runtime.markBits", "runtime.(*markBits)", "runtime.spanOf",
		"runtime.pageIndexOf", "runtime.(*mspan).markBitsForIndex", "runtime.(*scavenger",
		"runtime.(*mheap).freeSpan", "runtime.wbBufFlush", "runtime.(*mspan).heapBits",
	}
)

// bucketOf charges one profiled function to a cpu.* bucket.
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		name := strings.TrimPrefix(pkg, modulePrefix)
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "runtime":
		for _, p := range mallocFuncs {
			if strings.HasPrefix(fn, p) {
				return "malloc"
			}
		}
		for _, p := range gcFuncs {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		return "other"
	case pkg == "sort" || pkg == "slices" ||
		strings.HasPrefix(fn, "internal/reflectlite.Swapper") || strings.HasPrefix(fn, "reflect.Swapper"):
		return "sort"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "bufio":
		return "net"
	}
	return "other"
}

// foldProfile runs `go tool pprof -traces` over a CPU profile and
// folds its samples into cpu.* shares that sum to 1. A sample is
// charged to the innermost frame that belongs to a bucket other than
// "other": allocation and GC frames count as malloc and gc, and runtime
// helpers (memmove, map access, hashing, locks) count for their caller.
// A sample whose innermost non-helper frame is outside every bucket,
// such as the benchmark's own tracing, counts as other.
func foldProfile(goBin, path string) (map[string]float64, error) {
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(out)
}

// foldTraces parses pprof -traces text: samples are separated by
// "-----+---" lines, and each starts with "<value> <leaf function>"
// followed by one caller per line.
func foldTraces(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	var (
		value  float64
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			flat[chargeOf(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inBody = true
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !inBody || len(f) == 0 {
			continue
		}
		if len(frames) == 0 {
			if len(f) < 2 {
				continue
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof sample %q: %w", line, err)
			}
			value = d.Seconds()
			f = f[1:]
		}
		frames = append(frames, strings.Join(f, " "))
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof: no samples in profile")
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = flat[b] / total
	}
	return shares, nil
}

// chargeOf picks the bucket one sample's stack (innermost first) is
// charged to.
func chargeOf(frames []string) string {
	for _, fn := range frames {
		if b := bucketOf(fn); b != "other" || !isHelper(fn) {
			return b
		}
	}
	return "other"
}

// isHelper reports whether a frame is runtime or low-level standard
// library code that works on its caller's behalf.
func isHelper(fn string) bool {
	if !strings.Contains(fn, ".") {
		return true // assembly helpers such as aeshashbody and memeqbody
	}
	for _, p := range []string{"runtime.", "internal/", "sync.", "sync/atomic.", "math.", "math/bits."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
