// Package durable owns the one crash-durable way to replace a file:
// write a temp file, fsync it, rename it over the target, fsync the
// parent directory. Without the syncs a host crash shortly after the
// rename could leave the path pointing at a torn or missing file — the
// rename orders the directory entry, not the data. Every non-test
// os.Rename in the module lives in this package (TestNoRawRename).
//
// The files it writes are sparse: every whole 4 KB block of the stream
// (counted from the start of the file) that holds only zeros is skipped,
// not written, and the final length is set with Truncate, so a skipped
// block reads back as zeros from a hole. A write, and the fsync after
// it, then costs the file's non-zero blocks rather than its length —
// which is what makes a pool image cost its data, not its capacity. On
// a filesystem without holes the skipped blocks are allocated as zeros
// and the file is merely dense; it reads back the same either way.
package durable

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
)

// blockSize is the granularity at which WriteFile leaves holes: a block
// is skipped only when it is whole, aligned to the file's own blockSize
// boundaries, and zero throughout.
const blockSize = 4096

var zeroBlock [blockSize]byte

// WriteFile replaces path, atomically and durably, with what write
// streams. write goes to path+".tmp"; on any failure the temp file is
// removed and path is left as it was. Whole zero blocks of the stream
// become holes (see the package doc).
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	sw := &sparseWriter{f: f}
	err = write(sw)
	if err == nil {
		err = sw.finish()
	}
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

// sparseWriter writes a stream into an empty file, leaving each whole
// zero block as a hole. Every block before off has been dealt with; the
// stream's bytes from off on, less than a block, wait in part.
type sparseWriter struct {
	f    *os.File
	off  int64
	part []byte
}

func (w *sparseWriter) Write(p []byte) (int, error) {
	n := len(p)
	if len(w.part) > 0 {
		k := min(len(p), blockSize-len(w.part))
		w.part, p = append(w.part, p[:k]...), p[k:]
		if len(w.part) < blockSize {
			return n, nil
		}
		if err := w.writeBlocks(w.part); err != nil {
			return 0, err
		}
		w.part = w.part[:0]
	}
	whole := len(p) &^ (blockSize - 1)
	if err := w.writeBlocks(p[:whole]); err != nil {
		return 0, err
	}
	w.part = append(w.part, p[whole:]...)
	return n, nil
}

// writeBlocks writes b, a whole number of blocks, at off and moves off
// past it: each run of adjacent non-zero blocks in one WriteAt, the
// zero blocks not at all.
func (w *sparseWriter) writeBlocks(b []byte) error {
	run := -1 // start of the current non-zero run, -1 outside one
	for i := 0; i <= len(b); i += blockSize {
		zero := i == len(b) || bytes.Equal(b[i:i+blockSize], zeroBlock[:])
		if !zero && run < 0 {
			run = i
		}
		if zero && run >= 0 {
			if _, err := w.f.WriteAt(b[run:i], w.off+int64(run)); err != nil {
				return err
			}
			run = -1
		}
	}
	w.off += int64(len(b))
	return nil
}

// finish writes the trailing partial block, unless it is all zeros, and
// sets the file's length to the stream's, which also covers any
// trailing holes.
func (w *sparseWriter) finish() error {
	if !bytes.Equal(w.part, zeroBlock[:len(w.part)]) {
		if _, err := w.f.WriteAt(w.part, w.off); err != nil {
			return err
		}
	}
	return w.f.Truncate(w.off + int64(len(w.part)))
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
