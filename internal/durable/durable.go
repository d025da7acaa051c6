// Package durable owns the one crash-durable way to replace a file:
// write a temp file, fsync it, rename it over the target, fsync the
// parent directory. Without the syncs a host crash shortly after the
// rename could leave the path pointing at a torn or missing file — the
// rename orders the directory entry, not the data. Every non-test
// os.Rename in the module lives in this package (TestNoRawRename).
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile replaces path, atomically and durably, with what write
// streams. write goes to path+".tmp"; on any failure the temp file is
// removed and path is left as it was.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so renames, creations and removals within
// it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
