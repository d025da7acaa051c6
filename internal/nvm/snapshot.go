package nvm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/pangolin-go/pangolin/internal/durable"
)

// snapshotMagic identifies a device snapshot stream.
const snapshotMagic = 0x50474c4e564d3031 // "PGLNVM01"

// WriteSnapshot serializes the device's persistent state (media contents and
// poison set) to w. Only persistent contents are saved: lines that were
// never flushed+fenced are written as their last persistent image, exactly
// as if the machine lost power now. This is how example programs keep pools
// across process runs, standing in for a real NVMM-backed file. The image
// is streamed from the device's own bytes (tracker.writeStrict), not built
// as a second device first. An untracked device writes its bytes as they
// are: its owner saves it only when every store is flushed and fenced.
//
// The format is a 24-byte header, the sorted poison table and the whole
// media image, zero pages included. Written through SaveFile the zero
// pages cost nothing: durable.WriteFile leaves every whole zero 4 KB
// block of the file as a hole, so a save writes and fsyncs the pages
// that hold data and a pool's unused capacity takes no disk space.
func (d *Device) WriteSnapshot(w io.Writer) error {
	d.poisonMu.RLock()
	pages := make([]uint64, 0, len(d.poisoned))
	for p := range d.poisoned {
		pages = append(pages, p)
	}
	d.poisonMu.RUnlock()
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[8:], d.size)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(pages)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var pb [8]byte
	for _, p := range pages {
		binary.LittleEndian.PutUint64(pb[:], p)
		if _, err := bw.Write(pb[:]); err != nil {
			return err
		}
	}
	// The post-crash (strict) view, so that what we save is what durability
	// promised; streamed, not built as a second device.
	if err := d.trk.writeStrict(bw, d.mem); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a device from a snapshot produced by
// WriteSnapshot into a device built with opts. n is the stream's length in
// bytes: a header whose sizes do not add up to it is refused before the
// device is allocated, so a corrupt or truncated file fails the load
// instead of sizing memory from garbage.
//
// An untracked device is a mapping like New's, which the caller closes.
// The new device starts zeroed, and only the image's non-zero pages are
// copied into it, so a loaded pool's untouched capacity is never
// written and stays unmapped until the pool allocates it: a load costs
// reading the stream (a hole reads without disk I/O) plus copying the
// pages that hold data.
func ReadSnapshot(r io.Reader, n int64, opts Options) (*Device, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("nvm: reading snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != snapshotMagic {
		return nil, fmt.Errorf("nvm: not a device snapshot")
	}
	size := binary.LittleEndian.Uint64(hdr[8:])
	nPoison := binary.LittleEndian.Uint64(hdr[16:])
	if size%PageSize != 0 || size == 0 {
		return nil, fmt.Errorf("nvm: corrupt snapshot: size %#x", size)
	}
	// Overflow-safe form of 24 + 8*nPoison + size == n.
	if n < 24 || nPoison > uint64(n-24)/8 || size != uint64(n-24)-8*nPoison {
		return nil, fmt.Errorf("nvm: corrupt snapshot: header (size %#x, %d poisoned pages) does not match its %d-byte stream", size, nPoison, n)
	}
	d := New(size, opts)
	if err := d.readImage(br, nPoison); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// readImage fills a fresh device from a snapshot stream positioned after
// its header: the poison table, then the media image.
func (d *Device) readImage(br *bufio.Reader, nPoison uint64) error {
	size := d.size
	var pb [8]byte
	for i := uint64(0); i < nPoison; i++ {
		if _, err := io.ReadFull(br, pb[:]); err != nil {
			return fmt.Errorf("nvm: reading poison table: %w", err)
		}
		p := binary.LittleEndian.Uint64(pb[:])
		if p >= size/PageSize {
			return fmt.Errorf("nvm: corrupt snapshot: poison page %#x out of range", p)
		}
		d.poisoned[p] = struct{}{}
		d.nPoison.Add(1)
	}
	// Copy only the pages that hold data: d is freshly zeroed, so a zero
	// page left alone reads the same and its memory is never touched.
	buf := make([]byte, min(loadChunk, size))
	var zero [PageSize]byte
	for off := uint64(0); off < size; off += uint64(len(buf)) {
		chunk := buf[:min(uint64(len(buf)), size-off)]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return fmt.Errorf("nvm: reading media image: %w", err)
		}
		for i := 0; i < len(chunk); i += PageSize {
			if pg := chunk[i : i+PageSize]; !bytes.Equal(pg, zero[:]) {
				copy(d.mem[off+uint64(i):], pg)
				if d.trk != nil {
					d.trk.stored[(off+uint64(i))/PageSize] = true
				}
			}
		}
	}
	return nil
}

// loadChunk is how much of a media image ReadSnapshot reads per call: a
// whole number of pages.
const loadChunk = 256 * PageSize

// SaveFile writes a snapshot to path, replacing any existing file
// atomically and durably (durable.WriteFile), as a sparse file whose
// zero pages are holes.
func (d *Device) SaveFile(path string) error { return durable.WriteFile(path, d.WriteSnapshot) }

// LoadFile reads a snapshot from path into a device built with opts (an
// untracked one is a mapping the caller closes, as with New). It
// reads sparse files written by SaveFile and dense ones alike; either
// way only the pages that hold data become resident (ReadSnapshot).
func LoadFile(path string, opts Options) (*Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadSnapshot(f, fi.Size(), opts)
}
