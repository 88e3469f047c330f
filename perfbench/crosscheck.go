package main

import (
	"encoding/json"
	"fmt"
	"os"

	"arkfs/internal/harness"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/workload"
)

// benchSeedFile is the committed benchmark trajectory, relative to the
// repository root the benchmark runs from.
const benchSeedFile = "BENCH_seed.json"

// crossAttempts is how many replays crossCheck may take to reproduce the
// committed rates. The simulator can order same-instant events differently
// from one replay to the next (ROADMAP item 1), so a replay can land a few
// microseconds off; a change in the code that moves the model never matches.
const crossAttempts = 3

// crossCheck replays the mdtest part of the committed trajectory
// (harness.RunBench at its defaults: 4 clients, 200 files per client, seed
// 1) through the timing wrapper and requires every phase rate to equal the
// committed one exactly, tying this benchmark to BENCH_seed.json.
func crossCheck() error {
	var err error
	for i := 0; i < crossAttempts; i++ {
		if err = crossCheckOnce(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("%w (%d replays)", err, crossAttempts)
}

func crossCheckOnce() error {
	raw, err := os.ReadFile(benchSeedFile)
	if err != nil {
		return fmt.Errorf("cross-check: %w", err)
	}
	var committed struct {
		Seed       int64
		MdtestEasy []harness.BenchPhase `json:"mdtest_easy"`
		MdtestHard []harness.BenchPhase `json:"mdtest_hard"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("cross-check: %s: %w", benchSeedFile, err)
	}
	const procs, files = 4, 200
	var got []workload.PhaseResult
	var runErr error
	env := sim.NewVirtEnv()
	env.Run(func() {
		d, err := harness.BuildArkFS(env, harness.DefaultCalibration(), objstore.RADOSProfile(), procs,
			harness.ArkFSOptions{PermCache: true, Obs: obs.NewRegistry(), Seed: committed.Seed})
		if err != nil {
			runErr = err
			return
		}
		defer d.Close()
		r := newRound(false)
		mounts := r.track(env, d.Mounts, d.Ark, nil)
		easy, err := workload.MdtestEasy(env, mounts, workload.MdtestConfig{FilesPerProc: files, Root: "/bench-easy"})
		if err != nil {
			runErr = err
			return
		}
		hard, err := workload.MdtestHard(env, mounts, workload.MdtestConfig{
			FilesPerProc: files / 2, SharedDirs: procs, Root: "/bench-hard"})
		if err != nil {
			runErr = err
			return
		}
		got = append(easy, hard...)
	})
	if runErr != nil {
		return fmt.Errorf("cross-check: %w", runErr)
	}
	want := append(committed.MdtestEasy, committed.MdtestHard...)
	if len(got) != len(want) {
		return fmt.Errorf("cross-check: %d phases, %s has %d", len(got), benchSeedFile, len(want))
	}
	for i, w := range want {
		if g := got[i].OpsPerSec(); g != w.OpsPerSec || got[i].Name != w.Name {
			return fmt.Errorf("cross-check: phase %d %s: %v ops/s, %s has %s %v ops/s",
				i, got[i].Name, g, benchSeedFile, w.Name, w.OpsPerSec)
		}
	}
	return nil
}
