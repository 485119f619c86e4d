package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Scales of the reported units.
const (
	msPerSecond = 1e3
	bytesPerMB  = 1e6
)

// metric is one reported number with its unit and the sample count behind
// it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeProbe samples runtime/metrics: the peak of the memory the runtime
// holds from the system (all mapped memory less heap already returned to
// it), taken at phase boundaries and on a ticker. GC and allocation
// counters are read as deltas over a measured window.
type runtimeProbe struct {
	mu   sync.Mutex
	peak uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

const (
	rmTotalBytes = "/memory/classes/total:bytes"
	rmReleased   = "/memory/classes/heap/released:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmAllocBytes = "/gc/heap/allocs:bytes"
)

// startRuntimeProbe starts the memory ticker; stopProbe ends it.
func startRuntimeProbe(tick time.Duration) *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{})}
	p.sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

// sample records the memory in use now (call at phase boundaries too).
func (p *runtimeProbe) sample() {
	s := []metrics.Sample{{Name: rmTotalBytes}, {Name: rmReleased}}
	metrics.Read(s)
	v := s[0].Value.Uint64() - s[1].Value.Uint64()
	p.mu.Lock()
	if v > p.peak {
		p.peak = v
	}
	p.mu.Unlock()
}

// reset starts a new peak from the memory in use now.
func (p *runtimeProbe) reset() {
	p.mu.Lock()
	p.peak = 0
	p.mu.Unlock()
	p.sample()
}

func (p *runtimeProbe) stopProbe() {
	close(p.stop)
	p.wg.Wait()
	p.sample()
}

func (p *runtimeProbe) peakMiB() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return float64(p.peak) / (1 << 20)
}

// gcCounters is a snapshot of the cumulative GC and allocation counters.
type gcCounters struct {
	cycles uint64
	cpuS   float64
	alloc  uint64
}

func readGC() gcCounters {
	s := []metrics.Sample{{Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmAllocBytes}}
	metrics.Read(s)
	return gcCounters{cycles: s[0].Value.Uint64(), cpuS: s[1].Value.Float64(), alloc: s[2].Value.Uint64()}
}

// setRuntimeMetrics reports the GC work done between two snapshots.
func setRuntimeMetrics(m metricSet, a, b gcCounters) {
	m.set("runtime.gc_cycles", float64(b.cycles-a.cycles), "count", 1)
	m.set("runtime.gc_cpu_s", b.cpuS-a.cpuS, "s", 1)
	m.set("runtime.alloc_mb", float64(b.alloc-a.alloc)/(1<<20), "MiB", 1)
}

// cpuTicks is a snapshot of the machine's CPU time from /proc/stat, in
// clock ticks: busy is every state but idle and iowait, steal the part of
// it the hypervisor gave to other guests.
type cpuTicks struct{ busy, steal uint64 }

// readCPUTicks returns the zero snapshot where /proc/stat is missing.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = n
			t.busy += n
		default:
			t.busy += n
		}
	}
	return t
}

// stealShare is the share of the busy CPU time between a and b that the
// hypervisor took away.
func stealShare(a, b cpuTicks) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// hostInfo attributes a result to the machine, toolchain and source tree
// that produced it.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	TreeSHA256 string `json:"tree_sha256"`
}

func collectHost() hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
		Dirty:      "unknown",
		TreeSHA256: treeHash("."),
	}
	if out, err := gitOutput("rev-parse", "HEAD"); err == nil {
		h.Commit = strings.TrimSpace(out)
		if st, err := gitOutput("status", "--porcelain", "--untracked-files=no"); err == nil {
			h.Dirty = "false"
			if strings.TrimSpace(st) != "" {
				h.Dirty = "true"
			}
		}
	}
	return h
}

// gitOutput runs git in the working directory, which must be the top of
// the repository: git does not look further up, so an exported tree that
// sits inside some other repository is not attributed to that one's
// commit. Outside a repository it fails and the caller keeps "unknown";
// the tree hash still identifies the sources.
func gitOutput(args ...string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	return string(out), err
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

// treeHash digests every Go source and module file under root (paths and
// contents, in sorted order), skipping hidden directories such as the
// build output.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
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
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bitEqual reports whether a and b are deeply equal with floats compared
// by their bit patterns, so NaN equals NaN and a changed last bit shows.
func bitEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	return bitEqualValue(va, vb)
}

func bitEqualValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return false
		}
		return bitEqualValue(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !bitEqualValue(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Complex64, reflect.Complex128:
		ca, cb := a.Complex(), b.Complex()
		return math.Float64bits(real(ca)) == math.Float64bits(real(cb)) &&
			math.Float64bits(imag(ca)) == math.Float64bits(imag(cb))
	default:
		// Funcs and channels do not occur in analysis results.
		return false
	}
}
