package main

import (
	"archive/tar"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path"
	"strings"

	"arkfs/internal/fsapi"
	"arkfs/internal/harness"
	"arkfs/internal/objstore"
	"arkfs/internal/sim"
	"arkfs/internal/workload"
)

var bgCtx = context.Background()

const (
	clients     = 4
	fileSize    = 3901 // mdtest-hard payload, bytes
	sharedDirs  = 4
	fioReq      = 128 << 10
	archiveCats = 16
)

// sizes are the per-round input sizes of every workload.
type sizes struct {
	mdtestFiles  int   // mdtest-easy files per client; mdtest-hard uses half
	fioFile      int64 // bytes per client
	archiveFiles int   // dataset files per client
}

// sizesFor draws one seed's input sizes. The seed moves the mdtest file
// count and the fio file size by at most 1%, so a run's model-clock figures
// depend on its inputs while its host cost stays comparable across seeds;
// the archive dataset is drawn from the seed as a whole.
func sizesFor(seed int64) sizes {
	rng := rand.New(rand.NewSource(seed))
	return sizes{
		mdtestFiles:  1600 + 2*rng.Intn(8),
		fioFile:      240<<20 + int64(rng.Intn(9))*fioReq, // 3x the 80 MiB client cache
		archiveFiles: 1000,
	}
}

// hardPayload is the content of every mdtest-hard file (byte i = i).
var hardPayload = func() []byte {
	p := make([]byte, fileSize)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}()

// mdtestExpect knows the size of every mdtest file and the content of every
// mdtest-hard file.
func mdtestExpect(easyRoot, hardRoot string) func(string) (expectation, bool) {
	return func(p string) (expectation, bool) {
		switch {
		case strings.HasPrefix(p, easyRoot+"/"):
			return expectation{size: 0}, true
		case strings.HasPrefix(p, hardRoot+"/"):
			return expectation{size: fileSize, data: hardPayload}, true
		}
		return expectation{}, false
	}
}

// easyPaths and hardPaths repeat the workload package's layout so deleted
// files can be checked afterwards.
func easyPaths(root string, procs, files int) []string {
	var out []string
	for p := 0; p < procs; p++ {
		for i := 0; i < files; i++ {
			out = append(out, fmt.Sprintf("%s/p%03d/f%07d", root, p, i))
		}
	}
	return out
}

func hardPaths(root string, procs, files, dirs int) []string {
	var out []string
	for p := 0; p < procs; p++ {
		for i := 0; i < files; i++ {
			out = append(out, fmt.Sprintf("%s/p%03d/f.%03d.%07d", root, (p*31+i*17)%dirs, p, i))
		}
	}
	return out
}

var mdtestPhaseNames = []string{"easy_create", "easy_stat", "easy_delete", "hard_write", "hard_stat", "hard_read", "hard_delete"}

// simulate deploys ArkFS with 4 clients on prof under a fresh virtual clock,
// runs body against the wrapped mounts, and closes the deployment. In a
// traced round it then checks the cluster's own traffic counts against the
// registry's. body calls r.finish when its measured work is done.
func simulate(r *round, seed int64, prof objstore.Profile, expect func(string) (expectation, bool),
	body func(env sim.Env, d *harness.Deployment, mounts []fsapi.FileSystem) error) error {
	var runErr error
	env := sim.NewVirtEnv()
	env.Run(func() {
		d, err := harness.BuildArkFS(env, harness.DefaultCalibration(), prof, clients,
			harness.ArkFSOptions{PermCache: true, Obs: r.reg, Seed: seed})
		if err != nil {
			runErr = err
			return
		}
		c0, s0 := readCluster(d.Cluster), r.reg.Snapshot()
		runErr = body(env, d, r.track(env, d.Mounts, d.Ark, expect))
		d.Close()
		if runErr == nil && r.reg != nil {
			runErr = checkClusterCounts(c0, readCluster(d.Cluster), s0, r.reg.Snapshot())
		}
	})
	return runErr
}

// eachClient runs fn for every client concurrently and returns the first
// error.
func eachClient(env sim.Env, fn func(i int) error) error {
	errs := make([]error, clients)
	g := sim.NewGroup(env)
	for i := range errs {
		i := i
		g.Go(func() { errs[i] = fn(i) })
	}
	g.Wait()
	return errors.Join(errs...)
}

// runMdtest is IO500 mdtest-easy then mdtest-hard on the RADOS profile with
// the permission cache on. Payloads are kept so hard-phase reads can be
// checked against what was written.
func runMdtest(r *round, seed int64, sz sizes) error {
	prof := objstore.RADOSProfile()
	prof.SizeOnlyPrefix = ""
	const easyRoot, hardRoot = "/easy", "/hard"
	return simulate(r, seed, prof, mdtestExpect(easyRoot, hardRoot), func(env sim.Env, d *harness.Deployment, mounts []fsapi.FileSystem) error {
		easy, err := workload.MdtestEasy(env, mounts, workload.MdtestConfig{
			FilesPerProc: sz.mdtestFiles, Root: easyRoot})
		if err != nil {
			return err
		}
		hard, err := workload.MdtestHard(env, mounts, workload.MdtestConfig{
			FilesPerProc: sz.mdtestFiles / 2, SharedDirs: sharedDirs, Root: hardRoot})
		if err != nil {
			return err
		}
		if err := r.finish(env); err != nil {
			return err
		}
		for i, ph := range append(easy, hard...) {
			r.phases["phase."+mdtestPhaseNames[i]+".ops_per_s"] = ph.OpsPerSec()
			r.clockSig = append(r.clockSig, ph.Elapsed)
			if ph.Errors > 0 {
				r.rec.fail("phase %s: %d errors", mdtestPhaseNames[i], ph.Errors)
			}
		}
		r.writeVirt, r.readVirt = hard[0].Elapsed, hard[2].Elapsed
		r.writeBytes, r.readBytes = r.rec.byteCounts()
		if want := int64(clients * (sz.mdtestFiles / 2) * fileSize); r.writeBytes != want || r.readBytes != want {
			r.rec.fail("mdtest-hard moved %d/%d bytes, want %d", r.writeBytes, r.readBytes, want)
		}
		r.expectGone(d.Mounts[0], easyPaths(easyRoot, clients, sz.mdtestFiles))
		r.expectGone(d.Mounts[1], hardPaths(hardRoot, clients, sz.mdtestFiles/2, sharedDirs))
		return nil
	})
}

// runFio writes then reads one large file per client in 128 KiB requests,
// with fsync and a cache drop between the passes, on the RADOS profile with
// size-only data objects; afterwards each client checks its file's size and
// removes it.
func runFio(r *round, seed int64, sz sizes) error {
	const root = "/fio"
	files := make([]string, clients)
	for i := range files {
		files[i] = fmt.Sprintf("%s/file-%03d", root, i)
	}
	expect := func(p string) (expectation, bool) {
		return expectation{size: sz.fioFile}, strings.HasPrefix(p, root+"/")
	}
	return simulate(r, seed, objstore.RADOSProfile(), expect, func(env sim.Env, d *harness.Deployment, mounts []fsapi.FileSystem) error {
		// DropAllCaches must reach the unwrapped mounts.
		w, rd, err := workload.Fio(env, mounts, workload.FioConfig{
			FileSize: sz.fioFile, ReqSize: fioReq, Root: root, DropCaches: d.DropAllCaches})
		if err != nil {
			return err
		}
		_ = eachClient(env, func(i int) error {
			// Failures and size mismatches are recorded by the wrapper.
			_, _ = mounts[i].Stat(bgCtx, files[i])
			_ = mounts[i].Unlink(bgCtx, files[i])
			return mounts[i].FlushAll(bgCtx)
		})
		if err := r.finish(env); err != nil {
			return err
		}
		r.writeVirt, r.readVirt = w.Elapsed, rd.Elapsed
		r.writeBytes, r.readBytes = r.rec.byteCounts()
		total := sz.fioFile * clients
		if r.writeBytes != total || r.readBytes != total || w.Bytes != total || rd.Bytes != total {
			r.rec.fail("fio moved %d written / %d read (workload says %d / %d), want %d",
				r.writeBytes, r.readBytes, w.Bytes, rd.Bytes, total)
		}
		r.clockSig = append(r.clockSig, w.Elapsed, rd.Elapsed)
		r.expectGone(d.Mounts[0], files)
		return nil
	})
}

// archiveInput is one seed's dataset, its tar image, and the content of
// every file in it.
type archiveInput struct {
	data  *workload.Dataset
	tar   []byte
	files map[string]expectation // by base name
}

func newArchiveInput(seed int64, files int) (*archiveInput, error) {
	data := workload.NewDataset(workload.DatasetConfig{
		Files: files, MinSize: 2 << 10, MaxSize: 96 << 10, Categories: archiveCats, Seed: seed})
	img, err := workload.BuildTarImage(data, seed)
	if err != nil {
		return nil, err
	}
	in := &archiveInput{data: data, tar: img, files: map[string]expectation{}}
	tr := tar.NewReader(bytes.NewReader(img))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		body := make([]byte, hdr.Size)
		if _, err := io.ReadFull(tr, body); err != nil {
			return nil, err
		}
		in.files[path.Base(hdr.Name)] = expectation{size: hdr.Size, data: body}
	}
	return in, nil
}

// runArchive is the paper's Table II scenario: each client ingests the tar
// image from the 1 GB/s external store and extracts it into category
// directories (archiving); after a cache drop it re-tars the files out
// (unarchiving); then it checks and removes the extracted files (purge).
func runArchive(r *round, seed int64, sz sizes) error {
	in, err := newArchiveInput(seed, sz.archiveFiles)
	if err != nil {
		return err
	}
	prof := objstore.RADOSProfile()
	prof.SizeOnlyPrefix = "" // tar framing is parsed back: keep payloads
	root := func(i int) string { return fmt.Sprintf("/archive-%02d", i) }
	filePath := func(i int, f workload.DatasetFile) string {
		return fmt.Sprintf("%s/cat-%02d/%s", root(i), f.Category, f.Name)
	}
	expect := func(p string) (expectation, bool) {
		if path.Base(p) == "dataset.tar" {
			// tar.Reader stops at the end-of-archive marker, so the
			// extraction read is partial: only the size is known.
			return expectation{size: int64(len(in.tar))}, true
		}
		e, ok := in.files[path.Base(p)]
		return e, ok
	}
	return simulate(r, seed, prof, expect, func(env sim.Env, d *harness.Deployment, mounts []fsapi.FileSystem) error {
		ext := workload.NewExternalStore(env, harness.DefaultCalibration().EBSBandwidth)
		t0 := env.Now()
		if err := eachClient(env, func(i int) error {
			_, err := workload.Archive(env, mounts[i], in.data, in.tar,
				workload.ArchiveConfig{Root: root(i), External: ext})
			return err
		}); err != nil {
			return err
		}
		arch := env.Now() - t0
		w0, r0 := r.rec.byteCounts()
		d.DropAllCaches()
		t1 := env.Now()
		if err := eachClient(env, func(i int) error {
			_, err := workload.Unarchive(env, mounts[i], in.data,
				workload.ArchiveConfig{Root: root(i), External: ext})
			return err
		}); err != nil {
			return err
		}
		unarch := env.Now() - t1
		w1, r1 := r.rec.byteCounts()
		if err := eachClient(env, func(i int) error {
			for _, f := range in.data.Files {
				p := filePath(i, f)
				_, _ = mounts[i].Stat(bgCtx, p) // failures and size mismatches are recorded
				_ = mounts[i].Unlink(bgCtx, p)
			}
			return mounts[i].FlushAll(bgCtx)
		}); err != nil {
			return err
		}
		if err := r.finish(env); err != nil {
			return err
		}
		r.writeVirt, r.readVirt = arch, unarch
		r.writeBytes, r.readBytes = w0, r1-r0
		if w1 != w0 {
			r.rec.fail("unarchiving wrote %d bytes", w1-w0)
		}
		if want := clients * (int64(len(in.tar)) + in.data.Total); w0 != want {
			r.rec.fail("archiving wrote %d bytes, want %d", w0, want)
		}
		if want := clients * in.data.Total; r.readBytes != want {
			r.rec.fail("unarchiving read %d bytes, want %d", r.readBytes, want)
		}
		r.clockSig = append(r.clockSig, arch, unarch)
		r.phases["phase.archiving.s"] = arch.Seconds()
		r.phases["phase.unarchiving.s"] = unarch.Seconds()
		for i := range mounts {
			gone := []string{root(i) + "/dataset.tar"}
			for _, f := range in.data.Files {
				gone = append(gone, filePath(i, f))
			}
			r.expectGone(d.Mounts[i], gone)
		}
		return nil
	})
}
