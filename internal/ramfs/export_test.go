package ramfs

import "sort"

// Open returns the named file.
func (fs *FS) Open(name string) (File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// Remove deletes the named file (the space is not reclaimed: addresses
// are never reused, which keeps cache bookkeeping honest).
func (fs *FS) Remove(name string) bool {
	_, ok := fs.files[name]
	delete(fs.files, name)
	return ok
}

// Len returns the number of stored files.
func (fs *FS) Len() int { return len(fs.files) }

// Names returns all file names, sorted (deterministic iteration).
func (fs *FS) Names() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the bytes stored across all files.
func (fs *FS) TotalBytes() int64 {
	var total int64
	for _, f := range fs.files {
		total += int64(f.Buf.Size)
	}
	return total
}
