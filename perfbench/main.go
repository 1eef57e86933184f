// Command perfbench is the repository's benchmark. It drives the Saba
// simulator and control plane from outside, through their public
// functions, and prints one JSON result as its last line of output.
//
//	go run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// (run.sh builds it from the checkout and runs it from the repository
// root.) Workloads:
//
//   - testbed: paper §8.2 (Fig. 8). 16-job setups of the ten catalog
//     applications on the 32-host single switch, under the FECN baseline
//     and Saba. One switch is one link-connected component, so rate
//     allocation dominates.
//   - fabric: paper Fig. 10 at reduced scale. 20 synthetic workloads on
//     the 72-host three-pod spine-leaf, under all five policies: many
//     small dirty components, and Homa and Sincronia decline scoped
//     allocation.
//   - podlocal: reduced FigHyperscale. Pod-local flow waves on a
//     1,280-host fabric under ideal max-min on the per-pod sharded
//     engine: the only workload where the sharded runtime works.
//   - control: application lifecycles through sabalib over loopback TCP
//     RPC into a centralized controller enforcing through WFQ. The only
//     workload that exercises rpc, sabalib and the register path.
//
// Every workload generates its input from --seed and prints a digest of
// it, then simulates (or replays) that fixed input in passes until
// --seconds have elapsed. End-to-end metrics (--trace 0):
//
//   - setup_s: CPU time spent before the first measured pass (median of
//     at least nine set-ups and at least half a CPU second of them).
//   - cpu_s: CPU time of one pass over the fixed input (median over
//     passes), all threads, user and system. For control, one pass
//     pushes a fixed batch of lifecycles through the connections as fast
//     as they are answered.
//   - wall_s: wall time of one pass (median over passes). It is the
//     figure that shows parallel progress: on podlocal, cpu_s stays
//     level when the worker pool or lookahead stops overlapping shards,
//     wall_s grows.
//   - alloc_mb: MiB allocated by one pass (median).
//
// The three times are given in seconds of the reference machine: each
// is scaled by how fast a fixed reference kernel ran between the passes
// of the same run (calib.go), because the shared host's speed drifts
// between runs by more than the bounds. Raw times are printed on every
// run, and the traced run reports raw wall time as run.wall_s and the
// kernel's mean CPU time as run.kernel_cpu_s.
//
// The control workload also runs an open-loop phase at a nominal rate
// and a rate ladder; their latencies and the highest sustainable rate
// are printed and, in the traced run, reported as per-layer metrics.
//
// --trace 1 wraps the layer boundaries (netsim.Allocator,
// controller.Enforcer, the controller.API behind controller.Serve,
// sabalib.Transport, core.RunJobs), records spans in memory, writes them
// to .bench_build/spans when the run ends, and reports per-layer
// metrics. Traced passes alternate with untraced ones so the tracing
// overhead is measured in the same run, and both must produce the same
// completion digest.
//
// Any failed operation or output check is counted in "failed", sets
// "correct" to false and makes the command exit non-zero.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	problems          []string // output-check violations, one line each
	e2e               map[string]metric
	layers            map[string]metric
	info              []string // human-readable lines printed before the result
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options) (*report, error){
	"testbed":  runTestbed,
	"fabric":   runFabric,
	"podlocal": runPodlocal,
	"control":  runControl,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "testbed, fabric, podlocal or control")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", o.workload)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, line := range metadata(o) {
		fmt.Println(line)
	}
	for _, line := range rep.info {
		fmt.Println(line)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if o.trace {
		res.Metrics = rep.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		os.Exit(1)
	}
}

// metadata describes where and how the run was made.
func metadata(o options) []string {
	commit := sourceDigest()
	return []string{
		fmt.Sprintf("run: workload=%s seed=%d seconds=%g trace=%v", o.workload, o.seed, o.seconds, o.trace),
		fmt.Sprintf("host: GOMAXPROCS=%d nproc=%d go=%s commit=%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit),
		"network: control traffic crosses the host loopback interface, not a real link; simulated links are fluid models",
	}
}

// sourceDigest identifies the program under test, as a benchmark
// checkout is a plain file tree without version-control metadata: a SHA-256 over the
// paths and contents of the Go sources under internal/ and cmd/.
func sourceDigest() string {
	h := sha256.New()
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "src-unknown"
		}
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:8])
}

// medianSetup builds the set-up at least setupRepeats times, and until
// the builds have taken setupMinCPU seconds of CPU time, and returns the
// last value built with the median CPU time of the builds and their
// count. Earlier builds are released with drop. Each build starts from a
// freshly collected heap: a set-up takes tens of milliseconds, and
// whether a garbage collection cycle left over from earlier work lands
// inside it would otherwise dominate its time.
func medianSetup[T any](build func() (T, error), drop func(T)) (T, float64, int, error) {
	var v T
	var times []float64
	total := 0.0
	for len(times) < setupRepeats || total < setupMinCPU {
		if len(times) > 0 && drop != nil {
			drop(v)
		}
		runtime.GC()
		start := cpuSeconds()
		var err error
		v, err = build()
		if err != nil {
			return v, 0, 0, err
		}
		times = append(times, cpuSeconds()-start)
		total += times[len(times)-1]
	}
	return v, median(times), len(times), nil
}

// A run builds its set-up at least setupRepeats times and for at least
// setupMinCPU seconds; setup_s is the median. The cheap set-ups (tens of
// milliseconds) get the most builds.
const (
	setupRepeats = 9
	setupMinCPU  = 0.5
)

// passStats measures one pass.
type passStats struct {
	wall  float64 // seconds
	cpu   float64 // process CPU seconds, user and system, all threads
	alloc float64 // MiB
}

// measure runs fn once, timing it and taking the allocation delta.
func measure(fn func()) passStats {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	start := time.Now()
	fn()
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return passStats{wall: wall, cpu: cpu, alloc: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
}

// addTimes reports the run's set-up, CPU and wall times, scaled to the
// reference machine (calib.go), and prints them beside the raw ones.
// cpu and wall hold one value per untraced pass.
func addTimes(r *report, kern *refKernel, setupS float64, builds int, cpu, wall []float64) {
	cs, ws := kern.cpuScale(), kern.wallScale()
	r.e2e["setup_s"] = metric{setupS * cs, "s"}
	r.e2e["cpu_s"] = metric{median(cpu) * cs, "s"}
	r.e2e["wall_s"] = metric{median(wall) * ws, "s"}
	r.infof("kernel: mean %.4f CPU s, %.4f wall s over %d samples (min %.4f, max %.4f CPU s; reference %.3f, %.3f)",
		mean(kern.cpu), mean(kern.wall), len(kern.cpu), quantile(kern.cpu, 0), quantile(kern.cpu, 1), refKernelCPU, refKernelWall)
	r.infof("setup_s: %.4f s (raw median %.4f CPU s of %d set-ups)", setupS*cs, setupS, builds)
	r.infof("cpu_s: %.4f s (raw median %.4f, min %.4f, max %.4f) over %d untraced passes",
		median(cpu)*cs, median(cpu), quantile(cpu, 0), quantile(cpu, 1), len(cpu))
	r.infof("wall_s: %.4f s (raw median %.4f, min %.4f, max %.4f)",
		median(wall)*ws, median(wall), quantile(wall, 0), quantile(wall, 1))
}

// cpuSeconds is the CPU time the process has used, user plus system.
// Unlike wall time it leaves out time the host's hypervisor gave the
// virtual CPUs to other guests.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// goStats snapshots the runtime counters the traced run reports.
type goStats struct {
	gcs     uint32
	pauseNs uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{gcs: m.NumGC, pauseNs: m.PauseTotalNs}
}

// heapSampler tracks the peak live heap while a traced run is in
// progress.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if mb := float64(m.HeapAlloc) / (1 << 20); mb > peak {
				peak = mb
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return <-h.done
}

// addGoLayers reports the runtime's share of a traced run.
func addGoLayers(r *report, g0 goStats, heapPeak float64, passes int) {
	g1 := readGoStats()
	n := float64(max(passes, 1))
	r.layers["go.gc_cycles"] = metric{float64(g1.gcs-g0.gcs) / n, "count"}
	r.layers["go.gc_pause_s"] = metric{float64(g1.pauseNs-g0.pauseNs) / 1e9 / n, "s"}
	r.layers["go.heap_peak_mb"] = metric{heapPeak, "MiB"}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile is the highest quantile, at most 0.99, that leaves at
// least ten samples beyond it; ok is false when fewer than twenty
// samples exist (no tail beyond the median can be supported).
func tailQuantile(n int) (q float64, ok bool) {
	if n < 20 {
		return 0, false
	}
	q = 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q, true
}

// fnv folds v into an FNV-1a style 64-bit digest.
func fnv(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const fnvOffset = 14695981039346656037

// untilDeadline runs pass until the budget is spent, and at least
// minPasses times, and returns how many passes ran.
func untilDeadline(budget time.Duration, minPasses int, pass func(i int)) int {
	deadline := time.Now().Add(budget)
	i := 0
	for ; i < minPasses || time.Now().Before(deadline); i++ {
		pass(i)
	}
	return i
}
