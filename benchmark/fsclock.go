package main

import (
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/storage"
)

// fsClock measures how long the set-up rounds spend inside the filesystem,
// so that setup_s can leave it out. On the calibration machine's ext4 the
// same four table creations of ingest_saturate (open, write, fsync) take
// 2.7 ms in one stretch of minutes and 5.3–7.5 ms in the next, whatever
// the processor's speed, while everything else a round does takes
// 1.5 ms ± 5 % through both; with the filesystem's time in, setup_s there
// was three quarters disk, its runs fell into two groups 40 % apart, and
// the medians of two sets of ten moved by 23 and 30 %: more than any bound
// the contract allows, which for setup_s (unlike recovery_ms, demoted for
// the same reason) has to hold. So a round's time is its wall time minus
// the time during which at least one call into storage.FS was in flight;
// that time is reported beside it as storage.setup_fs_ms.
//
// The clock runs only while the rounds do. Afterwards a wrapped call costs
// one atomic load more than an unwrapped one.
type fsClock struct {
	on atomic.Bool

	mu       sync.Mutex
	inflight int
	since    time.Time
	busy     time.Duration
}

// enter marks the start of a filesystem call; the caller calls leave when
// the call returns if enter said true.
func (c *fsClock) enter() bool {
	if !c.on.Load() {
		return false
	}
	c.mu.Lock()
	if c.inflight == 0 {
		c.since = time.Now()
	}
	c.inflight++
	c.mu.Unlock()
	return true
}

func (c *fsClock) leave() {
	c.mu.Lock()
	if c.inflight--; c.inflight == 0 {
		c.busy += time.Since(c.since)
	}
	c.mu.Unlock()
}

// total is the time spent inside the filesystem so far.
func (c *fsClock) total() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy
}

// clockedFS is a storage.FS (core.Options.StorageFS) whose every call is
// on the clock. inner is the real filesystem, or the traced run's seam.
type clockedFS struct {
	inner storage.FS
	c     *fsClock
}

func (f clockedFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	if f.c.enter() {
		defer f.c.leave()
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return clockedFile{File: inner, c: f.c}, nil
}

func (f clockedFS) Open(name string) (storage.File, error) {
	if f.c.enter() {
		defer f.c.leave()
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return clockedFile{File: inner, c: f.c}, nil
}

func (f clockedFS) Rename(oldpath, newpath string) error {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f clockedFS) Remove(name string) error {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.inner.Remove(name)
}

func (f clockedFS) Stat(name string) (fs.FileInfo, error) {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.inner.Stat(name)
}

type clockedFile struct {
	storage.File
	c *fsClock
}

func (f clockedFile) Read(p []byte) (int, error) {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.File.Read(p)
}

func (f clockedFile) Write(p []byte) (int, error) {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.File.Write(p)
}

func (f clockedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.File.ReadAt(p, off)
}

func (f clockedFile) WriteAt(p []byte, off int64) (int, error) {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.File.WriteAt(p, off)
}

func (f clockedFile) Close() error {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.File.Close()
}

func (f clockedFile) Truncate(size int64) error {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.File.Truncate(size)
}

func (f clockedFile) Sync() error {
	if f.c.enter() {
		defer f.c.leave()
	}
	return f.File.Sync()
}
