package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"arkfs/internal/objstore.(*Cluster).placement":     "objstore",
		"arkfs/internal/sim.(*Chan[...]).Recv":             "sim",
		"arkfs/internal/obs/expose.Serve":                  "obs",
		"arkfs/internal/fsapi.arkFS.Open":                  "fsapi",
		"arkfs/internal/types.ParsePath":                   "other",
		"arkfs/internal/harness.BuildArkFS":                "other",
		"arkfs/cmd/arkfs.main":                             "other",
		"main.(*timedFS).Open":                             "bench",
		"arkfs/perfbench.TestModuleOf":                     "bench",
		"arkfs/internal/metatable.(*Table).Insert.func1":   "metatable",
		"arkfs/internal/journal.(*Journal).commitWorker":   "journal",
		"arkfs/internal/workload.MdtestHard.func2":         "workload",
		"arkfs/internal/cache.(*Cache).fetchChunk":         "cache",
		"arkfs/internal/core.(*Client).Stat":               "core",
		"arkfs/internal/lease.(*Manager).serveAcquire":     "lease",
		"arkfs/internal/rpc.(*Network).Call":               "rpc",
		"arkfs/internal/qos.(*Limiter).Admit":              "qos",
		"arkfs/internal/prt.(*Translator).Put":             "prt",
		"arkfs/internal/wire.Seal":                         "wire",
		"arkfs/internal/objstore.(*Cluster).serve.func1.1": "objstore",
	} {
		if got, ok := moduleOf(fn); !ok || got != want {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "fmt.Fprintf", "sort.Slice", "arkfsx/internal/core.F"} {
		if m, ok := moduleOf(fn); ok {
			t.Errorf("moduleOf(%q) = %q, want no module", fn, m)
		}
	}
}

func TestAttributeChargesTheInnermostRepositoryFrame(t *testing.T) {
	stacks := [][]string{
		// Placement's fmt/sort time is charged to objstore, not core.
		{"fmt.Fprintf", "arkfs/internal/objstore.(*Cluster).placement", "arkfs/internal/core.(*Client).Stat"},
		{"sort.Slice", "arkfs/internal/objstore.(*Cluster).placement", "arkfs/internal/core.(*Client).Stat"},
		{"arkfs/internal/core.(*Client).Stat", "main.(*timedFS).Stat"},
		{"runtime.mallocgc", "runtime.gcBgMarkWorker"},
		{},
	}
	got := attribute(stacks, []int64{1, 2, 4, 8, 16})
	want := map[string]int64{"objstore": 3, "core": 4, "runtime": 24}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for m, n := range want {
		if got[m] != n {
			t.Errorf("attribute[%s] = %d, want %d (all: %v)", m, got[m], n, got)
		}
	}
}

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestProfileStacksDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := profileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("%d stacks, %d weights", len(stacks), len(weights))
	}
	mods := attribute(stacks, weights)
	var total int64
	for _, n := range mods {
		total += n
	}
	// The spinning function is this package's, so samples land in bench.
	if mods["bench"] == 0 {
		t.Errorf("bench has none of %d samples: %v", total, mods)
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st {
			if _, ok := moduleOf(fn); ok {
				found = fn == "arkfs/perfbench.spin"
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Errorf("no sample has spin as its innermost repository frame; first stack: %v", stacks[0])
	}
}

func TestProfileStacksRejectsGarbage(t *testing.T) {
	if _, _, err := profileStacks([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}
