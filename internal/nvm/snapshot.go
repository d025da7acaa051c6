package nvm

import (
	"bufio"
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
	var pb [8]byte
	for i := uint64(0); i < nPoison; i++ {
		if _, err := io.ReadFull(br, pb[:]); err != nil {
			return nil, fmt.Errorf("nvm: reading poison table: %w", err)
		}
		p := binary.LittleEndian.Uint64(pb[:])
		if p >= size/PageSize {
			return nil, fmt.Errorf("nvm: corrupt snapshot: poison page %#x out of range", p)
		}
		d.poisoned[p] = struct{}{}
		d.nPoison.Add(1)
	}
	if _, err := io.ReadFull(br, d.mem); err != nil {
		return nil, fmt.Errorf("nvm: reading media image: %w", err)
	}
	return d, nil
}

// SaveFile writes a snapshot to path, replacing any existing file
// atomically and durably (durable.WriteFile).
func (d *Device) SaveFile(path string) error { return durable.WriteFile(path, d.WriteSnapshot) }

// LoadFile reads a snapshot from path into a device built with opts.
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
