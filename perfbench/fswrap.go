package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// opKind classifies one call at the fsapi seam.
type opKind int

const (
	opCreate opKind = iota // Open with OCreate
	opOpen
	opStat
	opUnlink
	opWrite
	opRead
	opClose
	opFlush // FlushAll, Sync and Fsync
	opOther // Mkdir, Rmdir, Rename, Readdir
	numOps
)

var opNames = [numOps]string{"create", "open", "stat", "unlink", "write", "read", "close", "flush", "other"}

func (k opKind) String() string { return opNames[k] }

// classifyOpen names an Open call by its flags: creat(2) and open(O_CREAT)
// are creates, everything else is a plain open.
func classifyOpen(flags types.OpenFlag) opKind {
	if flags&types.OCreate != 0 {
		return opCreate
	}
	return opOpen
}

// expectation is what a path must hold once the workload has written it.
type expectation struct {
	size int64
	data []byte // the content; nil: only the size is checked
}

// recorder times every call made through the wrapped mounts of one round and
// checks what the calls return. Calls before the first measured one are the
// workload's own tree set-up (Mkdir and FlushAll only) and are not recorded.
type recorder struct {
	env    sim.Env
	expect func(path string) (expectation, bool)
	// onStart runs once, inside the first measured call, before it is timed.
	onStart func()
	once    sync.Once
	started atomic.Bool
	stopped atomic.Bool
	// attempted counts every call that reaches the wrapper, in the window
	// or not, before it is classified; classed counts the same calls by
	// class, so a call left unclassified or classified twice shows.
	attempted atomic.Int64

	mu         sync.Mutex
	lat        [numOps][]time.Duration // workload clock
	host       [numOps]time.Duration
	errs       int64
	checkFails int64
	wbytes     int64
	rbytes     int64
	classed    [numOps]int64
	flushAlls  int64 // the FlushAll share of opFlush
	// lateSetup counts set-up calls that began before the first measured
	// call and ended after it (another client was already measuring).
	lateSetup [numOps]int64
	firstFail string
}

type stamp struct {
	virt  time.Duration
	host  time.Time
	on    bool
	setup bool // an unrecorded set-up call
}

// begin opens the timing of one call; setupKind marks the calls a workload
// uses for tree set-up before its first measured call.
func (r *recorder) begin(setupKind bool) stamp {
	r.attempted.Add(1)
	if r.stopped.Load() {
		return stamp{}
	}
	if !r.started.Load() {
		if setupKind {
			return stamp{setup: true}
		}
		r.once.Do(func() {
			if r.onStart != nil {
				r.onStart()
			}
			r.started.Store(true)
		})
	}
	return stamp{virt: r.env.Now(), host: time.Now(), on: true}
}

// end closes the timing of one call. io.EOF from a read is not a failure.
func (r *recorder) end(s stamp, k opKind, err error) {
	if !s.on {
		r.mu.Lock()
		r.classed[k]++
		if s.setup && r.started.Load() {
			r.lateSetup[k]++
		}
		r.mu.Unlock()
		return
	}
	v := r.env.Now() - s.virt
	h := time.Since(s.host)
	r.mu.Lock()
	r.classed[k]++
	r.lat[k] = append(r.lat[k], v)
	r.host[k] += h
	if err != nil && !errors.Is(err, io.EOF) {
		r.errs++
		if r.firstFail == "" {
			r.firstFail = fmt.Sprintf("%s: %v", k, err)
		}
	}
	r.mu.Unlock()
}

// fail counts one failed output check.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.checkFails++
	if r.firstFail == "" {
		r.firstFail = "check: " + fmt.Sprintf(format, args...)
	}
	r.mu.Unlock()
}

func (r *recorder) addBytes(w, rd int64) {
	r.mu.Lock()
	r.wbytes += w
	r.rbytes += rd
	r.mu.Unlock()
}

// byteCounts returns the user bytes written and read so far.
func (r *recorder) byteCounts() (w, rd int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wbytes, r.rbytes
}

// calls returns the number of recorded calls.
func (r *recorder) calls() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, l := range r.lat {
		n += int64(len(l))
	}
	return n
}

func (r *recorder) lookup(path string) (expectation, bool) {
	if r.expect == nil {
		return expectation{}, false
	}
	return r.expect(path)
}

// wrapFS returns m with every call timed and checked by r.
func wrapFS(m fsapi.FileSystem, r *recorder) fsapi.FileSystem { return &timedFS{inner: m, r: r} }

type timedFS struct {
	inner fsapi.FileSystem
	r     *recorder
}

func (t *timedFS) Mkdir(ctx context.Context, path string, mode types.Mode) error {
	s := t.r.begin(true)
	err := t.inner.Mkdir(ctx, path, mode)
	t.r.end(s, opOther, err)
	return err
}

func (t *timedFS) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (fsapi.File, error) {
	s := t.r.begin(false)
	f, err := t.inner.Open(ctx, path, flags, mode)
	t.r.end(s, classifyOpen(flags), err)
	if err != nil {
		return nil, err
	}
	tf := &timedFile{inner: f, r: t.r, path: path, diff: -1}
	if exp, ok := t.r.lookup(path); ok {
		tf.want = exp.data
	}
	return tf, nil
}

func (t *timedFS) Stat(ctx context.Context, path string) (*types.Inode, error) {
	s := t.r.begin(false)
	ino, err := t.inner.Stat(ctx, path)
	t.r.end(s, opStat, err)
	if err == nil {
		if exp, ok := t.r.lookup(path); ok && ino.Size != exp.size {
			t.r.fail("stat %s: size %d, want %d", path, ino.Size, exp.size)
		}
	}
	return ino, err
}

func (t *timedFS) Unlink(ctx context.Context, path string) error {
	s := t.r.begin(false)
	err := t.inner.Unlink(ctx, path)
	t.r.end(s, opUnlink, err)
	return err
}

func (t *timedFS) Rmdir(ctx context.Context, path string) error {
	s := t.r.begin(false)
	err := t.inner.Rmdir(ctx, path)
	t.r.end(s, opOther, err)
	return err
}

func (t *timedFS) Rename(ctx context.Context, src, dst string) error {
	s := t.r.begin(false)
	err := t.inner.Rename(ctx, src, dst)
	t.r.end(s, opOther, err)
	return err
}

func (t *timedFS) Readdir(ctx context.Context, path string) ([]wire.Dentry, error) {
	s := t.r.begin(false)
	ents, err := t.inner.Readdir(ctx, path)
	t.r.end(s, opOther, err)
	return ents, err
}

func (t *timedFS) FlushAll(ctx context.Context) error {
	s := t.r.begin(true)
	err := t.inner.FlushAll(ctx)
	t.r.end(s, opFlush, err)
	if s.on {
		t.r.mu.Lock()
		t.r.flushAlls++
		t.r.mu.Unlock()
	}
	return err
}

func (t *timedFS) Close() error { return t.inner.Close() }

// timedFile times handle calls and compares sequential reads from offset 0
// with what the path must hold; Close reports a difference.
type timedFile struct {
	inner fsapi.File
	r     *recorder
	path  string
	want  []byte // nil: content not checked
	rpos  int64  // bytes read sequentially from offset 0
	diff  int64  // offset of the first byte read that differs from want, or -1
}

func (f *timedFile) noteRead(p []byte, off int64, n int) {
	f.r.addBytes(0, int64(n))
	if f.want == nil {
		return
	}
	if off != f.rpos {
		f.want = nil // not a sequential read from 0: content not checked
		return
	}
	if i := firstDiff(p[:n], f.want[min(off, int64(len(f.want))):]); i >= 0 && f.diff < 0 {
		f.diff = off + int64(i)
	}
	f.rpos += int64(n)
}

// firstDiff returns the index of the first byte of got that differs from
// want or lies beyond it, or -1 when got is a prefix of want.
func firstDiff(got, want []byte) int {
	if len(got) <= len(want) && bytes.Equal(got, want[:len(got)]) {
		return -1
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			return i
		}
	}
	return -1
}

func (f *timedFile) Read(p []byte) (int, error) {
	s := f.r.begin(false)
	n, err := f.inner.Read(p)
	f.r.end(s, opRead, err)
	f.noteRead(p, f.rpos, n)
	return n, err
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.r.begin(false)
	n, err := f.inner.ReadAt(p, off)
	f.r.end(s, opRead, err)
	f.noteRead(p, off, n)
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	s := f.r.begin(false)
	n, err := f.inner.Write(p)
	f.r.end(s, opWrite, err)
	f.r.addBytes(int64(n), 0)
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	s := f.r.begin(false)
	n, err := f.inner.WriteAt(p, off)
	f.r.end(s, opWrite, err)
	f.r.addBytes(int64(n), 0)
	return n, err
}

// Seek is bookkeeping on the handle, not a file-system operation.
func (f *timedFile) Seek(offset int64, whence int) (int64, error) {
	f.want = nil
	return f.inner.Seek(offset, whence)
}

func (f *timedFile) Sync() error {
	s := f.r.begin(false)
	err := f.inner.Sync()
	f.r.end(s, opFlush, err)
	return err
}

func (f *timedFile) Fsync(ctx context.Context) error {
	s := f.r.begin(false)
	err := f.inner.Fsync(ctx)
	f.r.end(s, opFlush, err)
	return err
}

// Size is the handle's cached view, not a file-system operation.
func (f *timedFile) Size() int64 { return f.inner.Size() }

func (f *timedFile) Close() error {
	s := f.r.begin(false)
	err := f.inner.Close()
	f.r.end(s, opClose, err)
	if f.want != nil && f.rpos > 0 && (f.diff >= 0 || f.rpos != int64(len(f.want))) {
		f.r.fail("read %s: %d bytes, want %d; first difference at offset %d", f.path, f.rpos, len(f.want), f.diff)
	}
	return err
}
