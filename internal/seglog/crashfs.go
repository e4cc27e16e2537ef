package seglog

import (
	"errors"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"slices"
	"sync"
)

// ErrInjected is what a CrashFS returns from the operation it fails at,
// and from every operation after it.
var ErrInjected = errors.New("seglog: injected crash")

// CrashFS is the FS of the crash tests, after ALICE (Pillai et al.,
// OSDI 2014). It writes through to the real directory, as the page
// cache does for a live process, and keeps apart what a power cut would
// spare: each file's content as of its last fsync, and the directory's
// entries as of its last fsync, with the creates and unlinks made since.
// FailAt makes one operation, and every later one, fail with
// ErrInjected, which kills the log as an I/O error does; Crash rewrites
// the directory as a power cut leaves it, by the seed. The operations
// are OpenFile, a File's Write, Truncate and Sync, SyncDir and Remove;
// Close is none. A CrashFS serves one log and is safe for concurrent use.
type CrashFS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	ops     int                   // operations attempted
	failAt  int                   // the first operation that fails (0 = none)
	down    bool                  // Crash ran: every operation fails
	seen    map[string]bool       // every path an operation named
	live    map[string]*crashFile // the entries a reader sees
	durable map[string]*crashFile // the entries the last SyncDir covered
	pending []dirOp               // creates and unlinks since that SyncDir
}

type crashFile struct {
	data   []byte // everything written: what a reader sees
	synced int    // how much of data the last fsync covered
	// revert is what the last fsync covered, while a truncate since has
	// cut into it: a crash before the next fsync may bring it back.
	revert []byte
}

// dirOp is a create (file set) or an unlink (file nil) of path.
type dirOp struct {
	path string
	file *crashFile
}

// NewCrashFS returns a CrashFS whose crash draws from seed.
func NewCrashFS(seed int64) *CrashFS {
	return &CrashFS{
		rng:     rand.New(rand.NewSource(seed)),
		seen:    map[string]bool{},
		live:    map[string]*crashFile{},
		durable: map[string]*crashFile{},
	}
}

// FailAt makes operation n, counted from 1, and every operation after
// it fail with ErrInjected without doing anything (0 = none fails).
func (c *CrashFS) FailAt(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failAt = n
}

// Ops reports how many operations were attempted, failed ones included.
func (c *CrashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// op counts one operation and says whether it may run. Caller holds mu.
func (c *CrashFS) op() error {
	c.ops++
	if c.down || (c.failAt > 0 && c.ops >= c.failAt) {
		return ErrInjected
	}
	return nil
}

// lookup returns the live file at path. A file already on disk when an
// operation first names it is taken as durable. Caller holds mu.
func (c *CrashFS) lookup(path string) *crashFile {
	if !c.seen[path] {
		c.seen[path] = true
		if data, err := os.ReadFile(path); err == nil {
			f := &crashFile{data: data, synced: len(data)}
			c.live[path], c.durable[path] = f, f
		}
	}
	return c.live[path]
}

// OpenFile opens path as os.OpenFile does. A create is a directory
// operation; an O_TRUNC truncation is taken as durable at once.
func (c *CrashFS) OpenFile(path string, flag int) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.op(); err != nil {
		return nil, err
	}
	f := c.lookup(path)
	real, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	if f == nil {
		f = &crashFile{}
		c.live[path] = f
		c.pending = append(c.pending, dirOp{path, f})
	}
	if flag&os.O_TRUNC != 0 {
		f.data, f.synced, f.revert = nil, 0, nil
	}
	return &crashHandle{c: c, f: f, real: real}, nil
}

// SyncDir makes every create and unlink so far durable.
func (c *CrashFS) SyncDir(string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.op(); err != nil {
		return err
	}
	for _, d := range c.pending {
		d.apply(c.durable)
	}
	c.pending = nil
	return nil
}

func (d dirOp) apply(dir map[string]*crashFile) {
	if d.file == nil {
		delete(dir, d.path)
	} else {
		dir[d.path] = d.file
	}
}

// Remove unlinks path.
func (c *CrashFS) Remove(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.op(); err != nil {
		return err
	}
	c.lookup(path)
	if err := os.Remove(path); err != nil {
		return err
	}
	delete(c.live, path)
	c.pending = append(c.pending, dirOp{path: path})
	return nil
}

// Crash cuts the power and leaves the directory as the disk holds it:
// the entries the last SyncDir covered, each create and unlink made
// since kept or lost by a coin, and in each file that survives what
// its last fsync covered plus none, all or a part of what was written
// since — or, by a coin, when a truncate since cut into what that fsync
// covered, what it covered and nothing since. It reports the bytes
// written since an fsync that survive and those lost, over the files
// that survive. Every operation fails from then on.
func (c *CrashFS) Crash() (kept, lost int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = true
	survive := maps.Clone(c.durable)
	for _, d := range c.pending {
		if c.rng.Intn(2) == 0 {
			d.apply(survive)
		}
	}
	for _, path := range slices.Sorted(maps.Keys(c.seen)) {
		f, ok := survive[path]
		if !ok {
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return kept, lost, err
			}
			continue
		}
		if f.revert != nil && c.rng.Intn(2) == 0 {
			lost += int64(len(f.data) - f.synced)
			if err := os.WriteFile(path, f.revert, 0o644); err != nil {
				return kept, lost, err
			}
			continue
		}
		n := len(f.data) - f.synced
		switch c.rng.Intn(3) {
		case 0:
			n = 0
		case 1:
			n = c.rng.Intn(n + 1)
		}
		kept, lost = kept+int64(n), lost+int64(len(f.data)-f.synced-n)
		if err := os.WriteFile(path, f.data[:f.synced+n], 0o644); err != nil {
			return kept, lost, err
		}
	}
	return kept, lost, nil
}

// crashHandle is a File of a CrashFS.
type crashHandle struct {
	c    *CrashFS
	f    *crashFile
	real *os.File
}

func (h *crashHandle) Write(p []byte) (int, error) {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if err := h.c.op(); err != nil {
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	return h.real.Write(p)
}

// Truncate cuts or extends the file to size. A cut into what the last
// fsync covered is not durable until the next: a crash may revert it.
func (h *crashHandle) Truncate(size int64) error {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if err := h.c.op(); err != nil {
		return err
	}
	if err := h.real.Truncate(size); err != nil {
		return err
	}
	n := int(size)
	if n < h.f.synced && h.f.revert == nil {
		h.f.revert = slices.Clone(h.f.data[:h.f.synced])
	}
	if n > len(h.f.data) {
		h.f.data = append(h.f.data, make([]byte, n-len(h.f.data))...)
	}
	h.f.data, h.f.synced = h.f.data[:n], min(h.f.synced, n)
	return nil
}

// Sync marks what was written durable; the real file needs no fsync,
// since no test cuts the power of the machine it runs on.
func (h *crashHandle) Sync() error {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if err := h.c.op(); err != nil {
		return err
	}
	h.f.synced, h.f.revert = len(h.f.data), nil
	return nil
}

func (h *crashHandle) Close() error { return h.real.Close() }
