package main

import (
	"context"
	"io"
	"testing"

	"arkfs/internal/fsapi"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

func TestClassifyOpen(t *testing.T) {
	for flags, want := range map[types.OpenFlag]opKind{
		types.OWronly | types.OCreate | types.OTrunc: opCreate, // creat(2)
		types.OWronly | types.OCreate | types.OExcl:  opCreate,
		types.OWronly | types.OCreate:                opCreate,
		types.ORdonly:                                opOpen,
		types.OWronly | types.OTrunc:                 opOpen,
	} {
		if got := classifyOpen(flags); got != want {
			t.Errorf("classifyOpen(%#x) = %s, want %s", flags, got, want)
		}
	}
}

// memFS is a minimal in-memory fsapi.FileSystem.
type memFS struct{ files map[string][]byte }

type memFile struct {
	fs   *memFS
	path string
	pos  int64
}

func (m *memFS) Mkdir(context.Context, string, types.Mode) error { return nil }
func (m *memFS) Open(_ context.Context, p string, flags types.OpenFlag, _ types.Mode) (fsapi.File, error) {
	if _, ok := m.files[p]; !ok {
		if flags&types.OCreate == 0 {
			return nil, types.ErrNotExist
		}
		m.files[p] = nil
	}
	return &memFile{fs: m, path: p}, nil
}
func (m *memFS) Stat(_ context.Context, p string) (*types.Inode, error) {
	d, ok := m.files[p]
	if !ok {
		return nil, types.ErrNotExist
	}
	return &types.Inode{Size: int64(len(d))}, nil
}
func (m *memFS) Unlink(_ context.Context, p string) error               { delete(m.files, p); return nil }
func (m *memFS) Rmdir(context.Context, string) error                    { return nil }
func (m *memFS) Rename(context.Context, string, string) error           { return nil }
func (m *memFS) Readdir(context.Context, string) ([]wire.Dentry, error) { return nil, nil }
func (m *memFS) FlushAll(context.Context) error                         { return nil }
func (m *memFS) Close() error                                           { return nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	d := f.fs.files[f.path]
	if off >= int64(len(d)) {
		return 0, io.EOF
	}
	n := copy(p, d[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	d := f.fs.files[f.path]
	for int64(len(d)) < off+int64(len(p)) {
		d = append(d, 0)
	}
	copy(d[off:], p)
	f.fs.files[f.path] = d
	return len(p), nil
}
func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}
func (f *memFile) Seek(off int64, _ int) (int64, error) { f.pos = off; return off, nil }
func (f *memFile) Sync() error                          { return nil }
func (f *memFile) Fsync(context.Context) error          { return nil }
func (f *memFile) Size() int64                          { return int64(len(f.fs.files[f.path])) }
func (f *memFile) Close() error                         { return nil }

func TestWrapperRecordsAndChecks(t *testing.T) {
	good := []byte("payload")
	env := sim.NewRealEnv()
	defer env.Shutdown()
	started := 0
	rec := &recorder{
		env: env,
		expect: func(p string) (expectation, bool) {
			return expectation{size: int64(len(good)), data: good}, true
		},
		onStart: func() { started++ },
	}
	mem := &memFS{files: map[string][]byte{}}
	fs := wrapFS(mem, rec)
	ctx := context.Background()

	// Tree set-up before the first measured call is not recorded.
	_ = fs.Mkdir(ctx, "/d", 0777)
	_ = fs.FlushAll(ctx)
	if rec.calls() != 0 || started != 0 {
		t.Fatalf("set-up recorded: %d calls, %d starts", rec.calls(), started)
	}

	write := func(path string, data []byte) {
		f, err := fsapi.Create(ctx, fs, path, 0644)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = f.Write(data)
		_ = f.Close()
	}
	readBack := func(path string) {
		f, err := fs.Open(ctx, path, types.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(f)
		_ = f.Close()
	}
	write("/d/good", good)
	write("/d/bad", []byte("pAyload"))
	write("/d/short", good[:3])
	readBack("/d/good")
	if rec.checkFails != 0 {
		t.Fatalf("matching content failed a check: %s", rec.firstFail)
	}
	readBack("/d/bad")   // same size, other bytes
	readBack("/d/short") // wrong size
	write("/d/long", append(good, '!'))
	readBack("/d/long") // the expected content, then more
	if _, err := fs.Stat(ctx, "/d/short"); err != nil {
		t.Fatal(err)
	}
	if rec.checkFails != 4 {
		t.Errorf("%d failed checks, want 4 (bad content, short content, long content, short stat)", rec.checkFails)
	}
	if _, err := fs.Stat(ctx, "/d/missing"); err == nil {
		t.Fatal("stat of a missing file succeeded")
	}
	if rec.errs != 1 {
		t.Errorf("%d failed calls, want 1", rec.errs)
	}
	if started != 1 {
		t.Errorf("window opened %d times", started)
	}
	counts := map[opKind]int{}
	for k := opKind(0); k < numOps; k++ {
		counts[k] = len(rec.lat[k])
	}
	want := map[opKind]int{opCreate: 4, opWrite: 4, opClose: 8, opOpen: 4, opRead: 4, opStat: 2}
	for k := opKind(0); k < numOps; k++ {
		if counts[k] != want[k] {
			t.Errorf("%s: %d calls, want %d", k, counts[k], want[k])
		}
	}
	if w, r := rec.byteCounts(); w != 25 || r != 25 {
		t.Errorf("moved %d written / %d read bytes, want 25 / 25", w, r)
	}
	rec.stopped.Store(true)
	readBack("/d/good")
	if rec.calls() != 26 {
		t.Errorf("calls after the window closed were recorded: %d", rec.calls())
	}
	// Every call is classified exactly once: the 26 recorded, the two set-up
	// calls and the three after the window closed.
	var classed int64
	for _, c := range rec.classed {
		classed += c
	}
	if a := rec.attempted.Load(); a != 31 || classed != a {
		t.Errorf("%d calls attempted, %d classified, want 31 each", a, classed)
	}
}

func TestFirstDiff(t *testing.T) {
	for _, c := range []struct {
		got, want string
		i         int
	}{
		{"pay", "payload", -1},
		{"", "payload", -1},
		{"payload", "payload", -1},
		{"pAyload", "payload", 1},
		{"payload!", "payload", 7},
		{"x", "", 0},
	} {
		if i := firstDiff([]byte(c.got), []byte(c.want)); i != c.i {
			t.Errorf("firstDiff(%q, %q) = %d, want %d", c.got, c.want, i, c.i)
		}
	}
}

func TestRecorderIsSafeForConcurrentMounts(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	starts := 0
	rec := &recorder{env: env, onStart: func() { starts++ }}
	const mounts, files = 8, 50
	done := make(chan struct{})
	for i := 0; i < mounts; i++ {
		fs := wrapFS(&memFS{files: map[string][]byte{}}, rec)
		go func() {
			defer func() { done <- struct{}{} }()
			ctx := context.Background()
			_ = fs.Mkdir(ctx, "/d", 0777)
			for j := 0; j < files; j++ {
				f, err := fsapi.Create(ctx, fs, "/d/f", 0644)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = f.Write([]byte{1, 2, 3})
				_ = f.Close()
				_ = fs.FlushAll(ctx)
			}
		}()
	}
	for i := 0; i < mounts; i++ {
		<-done
	}
	if starts != 1 {
		t.Errorf("window opened %d times", starts)
	}
	// Every create, write, close and flush is recorded (the first create
	// opens the window before any of them can be set-up); each mount's Mkdir
	// is set-up, recorded, or late, depending on when it ran.
	got := rec.calls()
	for _, late := range rec.lateSetup {
		got += late
	}
	if want := int64(mounts * files * 4); got < want || got > want+mounts {
		t.Errorf("%d calls recorded or late, want %d to %d", got, want, want+mounts)
	}
	if w, _ := rec.byteCounts(); w != mounts*files*3 {
		t.Errorf("%d bytes written, want %d", w, mounts*files*3)
	}
}
