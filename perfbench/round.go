package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arkfs/internal/core"
	"arkfs/internal/fsapi"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// round is one deployment of a workload: set-up, then the measured window,
// which runs from the first measured fsapi call to the end of the workload.
type round struct {
	reg *obs.Registry // nil in untraced rounds

	start time.Time // host clock, round start
	rec   *recorder

	// Window edges, captured at the first measured call and at finish.
	setupS     float64
	virt0      time.Duration
	wall0      time.Time
	peakRSS    uint64
	rssErr     error // from resetting the peak at the window's start
	cpu0       float64
	mem0       runtime.MemStats
	gc0        float64
	snap0      obs.Snapshot
	clients    []*core.Client
	cl0        clientCounters
	prof       bytes.Buffer
	profiling  bool
	window     time.Duration // workload clock
	wallS      float64
	cpuS       float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPUS     float64
	snap1      obs.Snapshot
	cl1        clientCounters

	// Filled by the workload.
	writeVirt, readVirt time.Duration
	writeBytes          int64
	readBytes           int64
	phases              map[string]float64 // per-layer phase.* values
	clockSig            []time.Duration    // workload-clock results compared across traced/untraced
	cpuSamples          map[string]int64

	// Filled by release.
	calls   int64
	latency [numOps]latSummary
	layer   map[string]float64 // traced rounds: per-layer values
}

// latSummary is one operation class's calls in one round: latencies on the
// workload clock and mean host time, in microseconds.
type latSummary struct {
	n         int
	p50, tail float64
	tailP     float64 // the percentile tail is at: p99, or the highest below it with minBeyond samples beyond
	hostUS    float64
}

func newRound(traced bool) *round {
	r := &round{start: time.Now(), phases: map[string]float64{}}
	if traced {
		r.reg = obs.NewRegistry()
	}
	return r
}

// clientCounters are the counters core.Client exports without a registry.
type clientCounters struct {
	local, remote, acquires, pcache          int64
	hits, misses, readaheads, evicts, wbacks int64
	wbErrs                                   int64
}

func readClients(cs []*core.Client) clientCounters {
	var c clientCounters
	for _, cl := range cs {
		s := cl.StatCounters()
		c.local += s.LocalMetaOps.Load()
		c.remote += s.RemoteMetaOps.Load()
		c.acquires += s.LeaseAcquires.Load()
		c.pcache += s.PcacheHits.Load()
		cs := cl.CacheStats()
		c.hits += cs.Hits.Load()
		c.misses += cs.Misses.Load()
		c.readaheads += cs.Readaheads.Load()
		c.evicts += cs.Evictions.Load()
		c.wbacks += cs.Writebacks.Load()
		c.wbErrs += cs.WritebackErrors.Load()
	}
	return c
}

func (c clientCounters) sub(o clientCounters) clientCounters {
	return clientCounters{
		local: c.local - o.local, remote: c.remote - o.remote,
		acquires: c.acquires - o.acquires, pcache: c.pcache - o.pcache,
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		readaheads: c.readaheads - o.readaheads, evicts: c.evicts - o.evicts,
		wbacks: c.wbacks - o.wbacks, wbErrs: c.wbErrs - o.wbErrs,
	}
}

// processCPU returns the process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS resets the kernel's record of the process's peak resident
// set size (VmHWM) to the current resident size, so readPeakRSS then returns
// the peak since this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readPeakRSS returns the process's peak resident set size in bytes.
func readPeakRSS() (uint64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// gcCPU returns the CPU seconds the garbage collector has used so far.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// track attaches the round to a deployment's mounts: it returns the wrapped
// mounts the workload drives. expect names what a path must hold.
func (r *round) track(env sim.Env, mounts []fsapi.FileSystem, clients []*core.Client,
	expect func(string) (expectation, bool)) []fsapi.FileSystem {
	r.clients = clients
	r.rec = &recorder{env: env, expect: expect, onStart: func() { r.open(env) }}
	out := make([]fsapi.FileSystem, len(mounts))
	for i, m := range mounts {
		out[i] = wrapFS(m, r.rec)
	}
	return out
}

// open captures the window's starting edge. It runs inside the first
// measured call.
func (r *round) open(env sim.Env) {
	r.setupS = time.Since(r.start).Seconds()
	r.rssErr = resetPeakRSS()
	r.virt0 = env.Now()
	r.cl0 = readClients(r.clients)
	if r.reg != nil {
		r.snap0 = r.reg.Snapshot()
		r.profiling = pprof.StartCPUProfile(&r.prof) == nil
	}
	runtime.ReadMemStats(&r.mem0)
	r.gc0 = gcCPU()
	r.cpu0 = processCPU()
	r.wall0 = time.Now()
}

// finish captures the window's closing edge; later calls are not recorded.
func (r *round) finish(env sim.Env) error {
	if !r.rec.started.Load() {
		return errors.New("workload made no measured call")
	}
	r.rec.stopped.Store(true)
	r.cpuS = processCPU() - r.cpu0
	r.wallS = time.Since(r.wall0).Seconds()
	r.window = env.Now() - r.virt0
	if r.rssErr != nil {
		return fmt.Errorf("resetting the peak resident size: %w", r.rssErr)
	}
	var err error
	if r.peakRSS, err = readPeakRSS(); err != nil {
		return fmt.Errorf("reading the peak resident size: %w", err)
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - r.mem0.TotalAlloc
	r.mallocs = m1.Mallocs - r.mem0.Mallocs
	r.gcCycles = m1.NumGC - r.mem0.NumGC
	r.gcCPUS = gcCPU() - r.gc0
	r.cl1 = readClients(r.clients)
	if r.reg != nil {
		r.snap1 = r.reg.Snapshot()
		if r.profiling {
			pprof.StopCPUProfile()
			stacks, weights, err := profileStacks(r.prof.Bytes())
			if err != nil {
				return err
			}
			r.cpuSamples = attribute(stacks, weights)
			r.prof = bytes.Buffer{}
		}
	}
	return nil
}

// release keeps what reporting needs and drops the rest: the round's
// references to its deployment, its per-call samples and its registry
// snapshots. A finished round that kept them would grow the live heap of
// every later round, which moves the GC's pacing, and with it cpu_s and
// peak_rss_mb, from one round to the next.
func (r *round) release() {
	r.calls = r.rec.calls()
	for k := range r.latency {
		lat := r.rec.lat[k]
		sortDurations(lat)
		s := latSummary{n: len(lat)}
		if s.n > 0 {
			s.tailP, _ = tail(99, s.n)
			s.p50, s.tail = us(percentile(lat, 50)), us(percentile(lat, s.tailP))
			s.hostUS = us(r.rec.host[k]) / float64(s.n)
		}
		r.latency[k] = s
	}
	if r.reg != nil {
		r.layer = layerValues(r)
	}
	r.clients, r.reg, r.snap0, r.snap1 = nil, nil, obs.Snapshot{}, obs.Snapshot{}
	r.rec.env, r.rec.expect, r.rec.onStart = nil, nil, nil
	r.rec.lat = [numOps][]time.Duration{}
}

// failures counts failed calls plus failed output checks.
func (r *round) failures() int64 {
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	return r.rec.errs + r.rec.checkFails
}

// expectGone checks that each path no longer resolves on m (an unrecorded
// mount), counting a failed check for each that does.
func (r *round) expectGone(m fsapi.FileSystem, paths []string) {
	for _, p := range paths {
		if _, err := m.Stat(bgCtx, p); !errors.Is(err, types.ErrNotExist) {
			r.rec.fail("deleted %s still resolves (stat err %v)", p, err)
		}
	}
}

// checkOpCounts compares the wrapper's per-class call counts with the
// clients' own per-operation counts (the core.op.* histograms) over the
// window: every call the benchmark made must be an operation the program
// counted. Close and the handle-level Sync/Fsync have no program-side count.
// It also checks that the classes sum to the calls attempted over the whole
// round, which the wrapper counts apart from classifying them.
func checkOpCounts(r *round) error {
	d := func(names ...string) int64 {
		var n int64
		for _, name := range names {
			n += r.snap1.Histograms["core.op."+name].Count - r.snap0.Histograms["core.op."+name].Count
		}
		return n
	}
	n := func(ks ...opKind) int64 {
		var c int64
		for _, k := range ks {
			c += int64(len(r.rec.lat[k]))
		}
		return c
	}
	pairs := []struct {
		class     string
		got, want int64
	}{
		{"create+open", n(opCreate, opOpen), d("open")},
		{"stat", n(opStat), d("stat")},
		{"unlink", n(opUnlink), d("unlink")},
		{"read", n(opRead), d("read")},
		{"write", n(opWrite), d("write")},
		{"flushall", r.rec.flushAlls + r.rec.lateSetup[opFlush], d("flushall", "fsync")},
		{"other", n(opOther) + r.rec.lateSetup[opOther], d("mkdir", "rmdir", "rename", "readdir")},
	}
	for _, p := range pairs {
		if p.got != p.want {
			return fmt.Errorf("self-check: %d %s calls, the clients counted %d", p.got, p.class, p.want)
		}
	}
	var sum int64
	for _, c := range r.rec.classed {
		sum += c
	}
	if attempted := r.rec.attempted.Load(); sum != attempted {
		return fmt.Errorf("self-check: op classes sum to %d, %d calls attempted", sum, attempted)
	}
	return nil
}

// checkClusterCounts compares the object-store cluster's own traffic
// counters with the registry's per-verb counts over the same interval: two
// independent counts of the same calls, which must agree exactly.
func checkClusterCounts(c0, c1 clusterCounts, s0, s1 obs.Snapshot) error {
	d := func(name string) int64 { return s1.Counters[name] - s0.Counters[name] }
	got := clusterCounts{
		puts: d("objstore.put"), gets: d("objstore.get") + d("objstore.getrange"),
		deletes: d("objstore.delete"), lists: d("objstore.list"), heads: d("objstore.head"),
	}
	want := c1.sub(c0)
	if got != want {
		return fmt.Errorf("self-check: cluster counted %+v, registry %+v", want, got)
	}
	return nil
}

type clusterCounts struct{ puts, gets, deletes, lists, heads int64 }

func readCluster(c *objstore.Cluster) clusterCounts {
	s := c.Stat()
	return clusterCounts{s.Puts.Load(), s.Gets.Load(), s.Deletes.Load(), s.Lists.Load(), s.Heads.Load()}
}

func (c clusterCounts) sub(o clusterCounts) clusterCounts {
	return clusterCounts{c.puts - o.puts, c.gets - o.gets, c.deletes - o.deletes, c.lists - o.lists, c.heads - o.heads}
}
