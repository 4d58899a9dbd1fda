// Package ramfs models a memory-resident file system (the paper's §6.1
// PVFS-over-ramfs configuration, and the web tier's page cache): files
// live in the node's simulated address space, and reads/writes are priced
// as memory copies through the cache model.
package ramfs

import (
	"fmt"
	"time"

	"ioatsim/internal/mem"
)

// File is one stored file.
type File struct {
	Name string
	Buf  mem.Buffer
}

// Size returns the file size in bytes.
func (f File) Size() int { return f.Buf.Size }

// FS is one node's memory-resident file system.
type FS struct {
	Mem   *mem.Model
	files map[string]File
}

// New returns an empty file system on the node's memory.
func New(m *mem.Model) *FS {
	return &FS{Mem: m, files: make(map[string]File)}
}

// Create allocates a file of the given size, replacing any previous file
// of the same name.
func (fs *FS) Create(name string, size int) File {
	if size < 0 {
		panic("ramfs: negative file size")
	}
	f := File{Name: name, Buf: fs.Mem.Space.Alloc(size, 0)}
	fs.files[name] = f
	return f
}

// MustOpen returns the named file or panics — for workloads that generate
// their own traces and must never miss.
func (fs *FS) MustOpen(name string) File {
	f, ok := fs.files[name]
	if !ok {
		panic(fmt.Sprintf("ramfs: no such file %q", name))
	}
	return f
}

// ReadCost prices copying [off, off+n) of the file into dst — the page
// cache to user buffer copy of a read() call.
func (fs *FS) ReadCost(f File, off, n int, dst mem.Addr) time.Duration {
	checkRange(f, off, n)
	return fs.Mem.CopyCost(f.Buf.Addr+mem.Addr(off), dst, n)
}

// WriteCost prices copying n bytes from src into [off, off+n) of the
// file — the user buffer to page cache copy of a write() call.
func (fs *FS) WriteCost(f File, off, n int, src mem.Addr) time.Duration {
	checkRange(f, off, n)
	return fs.Mem.CopyCost(src, f.Buf.Addr+mem.Addr(off), n)
}

func checkRange(f File, off, n int) {
	if off < 0 || n < 0 || off+n > f.Buf.Size {
		panic(fmt.Sprintf("ramfs: range [%d,%d) outside file %q of %d bytes",
			off, off+n, f.Name, f.Buf.Size))
	}
}
