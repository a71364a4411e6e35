package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"masterparasite/internal/chaos"
)

// memFS is the labd store's filesystem in labd-serve: a chaos.FS held
// in process memory. It stands in for a tmpfs directory — fsync costs
// nothing, as on tmpfs — so neither a shared disk's fsync latency nor
// files left by other programs reach the measurement, and the benchmark
// writes nothing outside its checkout. Files are immutable once
// written (WriteFile stores a copy), so clone shares their bytes.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, dirs: map[string]bool{}}
}

// clone returns an independent filesystem holding the same files.
func (m *memFS) clone() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := newMemFS()
	for k, v := range m.files {
		c.files[k] = v
	}
	for k := range m.dirs {
		c.dirs[k] = true
	}
	return c
}

func (m *memFS) MkdirAll(dir string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[filepath.Clean(dir)] = true
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), b...), nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	var out []fs.DirEntry
	for name, b := range m.files {
		if filepath.Dir(name) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(name), size: int64(len(b))}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) WriteFile(name string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(name)] {
		return &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	m.files[name] = append([]byte(nil), data...)
	return nil
}

func (m *memFS) Sync(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(dir)] {
		return &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = b
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// memInfo is the fs.FileInfo of a memFS file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// fsStat counts one kind of store call: calls, time inside them, and
// bytes written.
type fsStat struct {
	calls, nanos, bytes atomic.Int64
}

func (s *fsStat) add(start time.Time, bytes int) {
	s.calls.Add(1)
	s.nanos.Add(int64(time.Since(start)))
	s.bytes.Add(int64(bytes))
}

// countingFS is the traced run's store instrumentation: it times and
// counts every call and delegates it unchanged, so the store's
// write → sync → rename → sync-dir chain runs as without it.
type countingFS struct {
	fs                                chaos.FS
	mkdir, read, readdir, write, sync fsStat
	syncdir, rename, remove           fsStat
}

func (c *countingFS) MkdirAll(dir string, perm os.FileMode) error {
	defer c.mkdir.add(time.Now(), 0)
	return c.fs.MkdirAll(dir, perm)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	defer c.read.add(time.Now(), 0)
	return c.fs.ReadFile(name)
}

func (c *countingFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	defer c.readdir.add(time.Now(), 0)
	return c.fs.ReadDir(dir)
}

func (c *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	defer c.write.add(time.Now(), len(data))
	return c.fs.WriteFile(name, data, perm)
}

func (c *countingFS) Sync(name string) error {
	defer c.sync.add(time.Now(), 0)
	return c.fs.Sync(name)
}

func (c *countingFS) SyncDir(dir string) error {
	defer c.syncdir.add(time.Now(), 0)
	return c.fs.SyncDir(dir)
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	defer c.rename.add(time.Now(), 0)
	return c.fs.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error {
	defer c.remove.add(time.Now(), 0)
	return c.fs.Remove(name)
}

// storeCounts is a snapshot of the counters labd-serve reports per run.
type storeCounts struct {
	syncs, syncNanos, writes, bytesWritten int64
}

func (c *countingFS) counts() storeCounts {
	return storeCounts{
		syncs:        c.sync.calls.Load() + c.syncdir.calls.Load(),
		syncNanos:    c.sync.nanos.Load() + c.syncdir.nanos.Load(),
		writes:       c.write.calls.Load(),
		bytesWritten: c.write.bytes.Load(),
	}
}
