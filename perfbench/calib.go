package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// Machine-speed calibration.
//
// The benchmark runs on a few virtual CPUs of a shared host. There the
// time of one fixed pass has drifted by 30% and more between runs
// minutes apart, as neighbours load the host's cores and caches, and a
// fixed 0.1 s piece of work on one thread took anywhere from 0.06 to
// 0.11 CPU seconds within a few seconds. A median over the passes of one
// run cannot take that out. So between the passes of a run the
// benchmark runs a fixed reference kernel, for about refShare of the
// passes' time, and reports the run's times scaled to the speed the
// kernel had on the reference machine:
//
//	cpu_s   = median pass CPU  × refKernelCPU  / mean kernel CPU
//	wall_s  = median pass wall × refKernelWall / mean kernel wall
//	setup_s = median set-up CPU × refKernelCPU / mean kernel CPU
//
// The mean, not the median, of the kernel samples, because a pass's
// time is itself the sum of the fast and slow moments it spans. The
// kernel is this benchmark's own code and calls nothing of the
// program, so a change to the program moves the passes and not the
// kernel. Raw times are printed on every run.
//
// Pinned to one vCPU of a two-vCPU shared virtual machine, with a busy
// loop or a memory-streaming loop on the other vCPU, a testbed pass's
// CPU time rose by 11-12% and the kernel's by 9-11%, and the scaled
// cpu_s stayed within 4% of its quiet value.
//
// The kernel does what the simulator's hot paths do, on a working set
// of about 1 MiB per thread: max-min fair sharing of links among flows,
// a walk over a map, a sort of integer keys and a binary heap of float
// keys. It allocates nothing, so no garbage collection lands in a
// sample. It runs on as many threads as the workload's passes keep
// busy: one for testbed and fabric, whose passes run on one thread
// (CPU time per pass about equal to wall time), and GOMAXPROCS for
// podlocal (the sharded engine's worker pool) and control (RPC client
// and server goroutines), whose wall time depends on every virtual CPU
// the host gives them. On those two the single-thread kernel left the
// run-to-run spread of wall_s about twice as wide.

// The reference machine's kernel time: about the mean of a sample on
// two vCPUs of a shared x86-64 virtual machine (Go 1.24), where single
// samples ranged from 0.06 to 0.11 s. Any fixed value would do; these
// keep the scaled figures near the raw ones.
const (
	refKernelCPU  = 0.090
	refKernelWall = 0.090
)

// Kernel sizes. refRounds sets one sample to about 0.1 s on the
// reference machine.
const (
	refLinks  = 1 << 12
	refFlows  = 1 << 14
	refHops   = 4 // links per flow
	refKeys   = 1 << 11
	refRounds = 60
	// refShare is the kernel's time as a share of the passes' time.
	refShare       = 0.15
	refSeed  int64 = 0x5eed
)

// refKernel is the calibration: one kernel state per thread and the
// samples taken.
type refKernel struct {
	states    []*refState
	cpu, wall []float64 // per sample: mean thread CPU, wall
}

// newRefKernel makes a kernel that runs on threads threads.
func newRefKernel(threads int) *refKernel {
	k := &refKernel{}
	for i := 0; i < max(threads, 1); i++ {
		k.states = append(k.states, newRefState())
	}
	return k
}

// refState is one thread's fixed kernel state: a network of links and
// flows much like a small simulated fabric.
type refState struct {
	path      []int32 // refHops link indices per flow
	capacity  []float64
	share     []float64 // per link
	count     []int32   // per link: flows not yet frozen
	rate      []float64 // per flow
	index     map[int32]int32
	src, keys []uint64
	heap      []float64
	checksum  float64 // kept so the compiler cannot drop the work
}

func newRefState() *refState {
	rng := rand.New(rand.NewSource(refSeed))
	k := &refState{
		path:     make([]int32, refFlows*refHops),
		capacity: make([]float64, refLinks),
		share:    make([]float64, refLinks),
		count:    make([]int32, refLinks),
		rate:     make([]float64, refFlows),
		index:    make(map[int32]int32, refFlows),
		src:      make([]uint64, refKeys),
		keys:     make([]uint64, refKeys),
		heap:     make([]float64, 0, refKeys),
	}
	for i := range k.path {
		k.path[i] = int32(rng.Intn(refLinks))
	}
	for i := range k.capacity {
		k.capacity[i] = 1 + 99*rng.Float64()
	}
	for f := 0; f < refFlows; f++ {
		k.index[int32(rng.Uint32())] = int32(f)
	}
	for i := range k.src {
		k.src[i] = rng.Uint64()
	}
	return k
}

// work does one sample's fixed amount of work: per round, one sweep of
// max-min fair sharing (every flow takes the smallest fair share on its
// path, then leaves its links), a map walk, a sort and a heap.
func (k *refState) work() {
	for r := 0; r < refRounds; r++ {
		for l := range k.count {
			k.count[l] = 0
			k.share[l] = k.capacity[l]
		}
		for _, l := range k.path {
			k.count[l]++
		}
		for f := range k.rate {
			p := k.path[f*refHops : (f+1)*refHops]
			x := math.Inf(1)
			for _, l := range p {
				x = math.Min(x, k.share[l]/float64(k.count[l]))
			}
			for _, l := range p {
				k.share[l] -= x
				k.count[l]--
			}
			k.rate[f] = x
		}
		for key, f := range k.index {
			k.checksum += k.rate[f] * float64(key&1)
		}
		copy(k.keys, k.src)
		slices.Sort(k.keys)
		h := k.heap[:0]
		for i, key := range k.src {
			h = heapPush(h, float64(key>>40)+k.rate[i])
		}
		for len(h) > 0 {
			var x float64
			x, h = heapPop(h)
			k.checksum += x
		}
	}
}

func heapPush(h []float64, x float64) []float64 {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func heapPop(h []float64) (float64, []float64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l] < h[least] {
			least = l
		}
		if r < n && h[r] < h[least] {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top, h
}

// sample runs the kernel once on each of its threads and records the
// threads' mean CPU time and the wall time until the last finished. It
// first finishes any garbage collection a pass left running, and each
// thread takes its own CPU time, so no other goroutine's work lands in
// the sample.
func (k *refKernel) sample() {
	runtime.GC()
	cpu := make([]float64, len(k.states))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, st := range k.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPUSeconds()
			st.work()
			cpu[i] = threadCPUSeconds() - c0
		}()
	}
	wg.Wait()
	k.wall = append(k.wall, time.Since(t0).Seconds())
	k.cpu = append(k.cpu, mean(cpu))
}

// threadCPUSeconds is the CPU time the calling thread has used, user
// plus system.
func threadCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// measure runs fn as one pass, then runs the kernel for about
// refShare of the pass's wall time (and at least once), so that the
// kernel's samples spread over the run in step with the passes.
func (k *refKernel) measure(fn func()) passStats {
	if len(k.cpu) == 0 {
		k.sample()
	}
	ps := measure(fn)
	for spent := 0.0; spent == 0 || spent < refShare*ps.wall; {
		k.sample()
		spent += k.wall[len(k.wall)-1]
	}
	return ps
}

// cpuScale and wallScale scale a time measured in this run to the
// reference machine.
func (k *refKernel) cpuScale() float64  { return refKernelCPU / mean(k.cpu) }
func (k *refKernel) wallScale() float64 { return refKernelWall / mean(k.wall) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
