// Package layout defines Pangolin's on-media pool format: the arrangement
// of replicated pool/zone metadata, transaction-log lanes, zones, chunk
// rows, and the parity row, together with the address arithmetic (page
// columns, range columns) that the parity and recovery machinery relies on
// (paper §3.1, Figure 2).
//
// Pool layout (all offsets in bytes from the start of the device):
//
//	page 0              pool header, primary
//	page 1              pool header, replica
//	page 2              bad-page recovery records, primary
//	page 3              bad-page recovery records, replica
//	lanesOff            NumLanes × LaneSize   transaction lanes, primary
//	                    NumLanes × LaneSize   transaction lanes, replica
//	overflowOff         OverflowExts × OverflowExtSize   log overflow, primary
//	                    OverflowExts × OverflowExtSize   log overflow, replica
//	zonesOff            NumZones × zone
//
// Zone layout:
//
//	+0                  zone header, primary (one page)
//	+PageSize           zone header, replica (one page)
//	+2·PageSize         RowsPerZone-1 data rows, RowSize each
//	+…                  parity row, RowSize (the last chunk row, §3.1)
//
// The chunk-metadata array for a zone lives in the first chunks of data
// row 0, so it is covered by zone parity exactly as the paper prescribes
// ("Pangolin uses zone parity to support recovery of chunk metadata").
// Pool and zone headers, lanes, and overflow extents are replicated instead.
package layout

import (
	"fmt"

	"github.com/pangolin-go/pangolin/internal/nvm"
)

const (
	// PageSize mirrors nvm.PageSize: media-error and page-column width.
	PageSize = nvm.PageSize

	// ObjHeaderSize is the per-object header: 64-bit size, 32-bit type,
	// 32-bit checksum. Pangolin shrinks libpmemobj's 64-bit type id to
	// 32 bits to make room for the checksum (§3.1).
	ObjHeaderSize = 16

	// CMEntrySize is the on-media size of one chunk-metadata entry.
	CMEntrySize = 256

	// LaneHeaderSize is the fixed header at the start of each lane.
	LaneHeaderSize = 64

	// OverflowExtHeader is the header of each log-overflow extent.
	OverflowExtHeader = 16
)

// Magic identifies a Pangolin pool.
const Magic uint64 = 0x50414e474f4c4e31 // "PANGOLN1"

// Version is the pool format version.
const Version uint32 = 1

// Pool feature flags, stored in the pool header. They record which
// protection mechanisms the pool was created with (Table 2 modes).
const (
	FlagReplicateMeta uint32 = 1 << iota // metadata + log replication (ML)
	FlagParity                           // zone parity maintained (P)
	FlagChecksums                        // object checksums maintained (C)
	FlagReplicaPool                      // Pmemobj-R style full replica device
)

// Geometry fixes the shape of a pool. All sizes are in bytes. The paper's
// configuration is 16 GB zones of 256 KB chunks with 100 chunk rows; tests
// default to a ratio-preserving laptop scale.
type Geometry struct {
	ChunkSize       uint64 // bytes per chunk
	ChunksPerRow    uint64 // chunks per chunk row
	RowsPerZone     uint64 // chunk rows per zone, including the parity row
	NumZones        uint64
	NumLanes        uint64 // concurrent transaction lanes
	LaneSize        uint64 // log bytes per lane (incl. header)
	OverflowExts    uint64 // log overflow extents
	OverflowExtSize uint64 // bytes per overflow extent (incl. header)
	RangeLockBytes  uint64 // parity range-lock granularity (§3.5)
}

// Default returns the test-scale geometry: 1 MB zones (16 rows of 4×16 KB
// chunks, last row parity), 64 lanes. Parity overhead 1/16; benchmarks use
// Paper-like 100-row zones instead.
func Default() Geometry {
	return Geometry{
		ChunkSize:       16 * 1024,
		ChunksPerRow:    4,
		RowsPerZone:     16,
		NumZones:        2,
		NumLanes:        64,
		LaneSize:        32 * 1024,
		OverflowExts:    32,
		OverflowExtSize: 64 * 1024,
		RangeLockBytes:  8 * 1024,
	}
}

// Paper returns a geometry with the paper's proportions (100 chunk rows per
// zone so parity is ~1% of the zone) scaled to fit in RAM: 256 KB rows
// (4×64 KB chunks), 100 rows → 25.6 MB zones.
func Paper(zones uint64) Geometry {
	return Geometry{
		ChunkSize:       64 * 1024,
		ChunksPerRow:    4,
		RowsPerZone:     100,
		NumZones:        zones,
		NumLanes:        64,
		LaneSize:        64 * 1024,
		OverflowExts:    64,
		OverflowExtSize: 256 * 1024,
		RangeLockBytes:  8 * 1024,
	}
}

// Validate checks internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.ChunkSize == 0 || g.ChunkSize%PageSize != 0:
		return fmt.Errorf("layout: ChunkSize %d must be a positive multiple of the page size", g.ChunkSize)
	case g.ChunksPerRow == 0:
		return fmt.Errorf("layout: ChunksPerRow must be positive")
	case g.RowsPerZone < 3:
		return fmt.Errorf("layout: RowsPerZone %d must be at least 3 (CM row + a data row + parity)", g.RowsPerZone)
	case g.NumZones == 0:
		return fmt.Errorf("layout: NumZones must be positive")
	case g.NumLanes == 0:
		return fmt.Errorf("layout: NumLanes must be positive")
	case g.LaneSize < 2*LaneHeaderSize || g.LaneSize%PageSize != 0:
		return fmt.Errorf("layout: LaneSize %d must be a page multiple with room for entries", g.LaneSize)
	case g.OverflowExtSize != 0 && g.OverflowExtSize%PageSize != 0:
		return fmt.Errorf("layout: OverflowExtSize %d must be a page multiple", g.OverflowExtSize)
	case g.RangeLockBytes == 0 || g.RangeLockBytes%8 != 0:
		return fmt.Errorf("layout: RangeLockBytes %d must be a positive multiple of 8", g.RangeLockBytes)
	}
	if g.CMChunks() >= g.ChunksPerZone() {
		return fmt.Errorf("layout: chunk metadata (%d chunks) does not leave allocatable space", g.CMChunks())
	}
	return nil
}

// RowSize returns the bytes in one chunk row.
func (g Geometry) RowSize() uint64 { return g.ChunkSize * g.ChunksPerRow }

// DataRows returns the number of non-parity rows per zone.
func (g Geometry) DataRows() uint64 { return g.RowsPerZone - 1 }

// ChunksPerZone returns the number of chunks in a zone's data rows.
func (g Geometry) ChunksPerZone() uint64 { return g.DataRows() * g.ChunksPerRow }

// ZoneDataSize returns the bytes of data rows per zone (excludes parity and
// zone headers).
func (g Geometry) ZoneDataSize() uint64 { return g.DataRows() * g.RowSize() }

// ZoneSize returns the total bytes per zone on media.
func (g Geometry) ZoneSize() uint64 { return 2*PageSize + g.RowsPerZone*g.RowSize() }

// CMChunks returns how many chunks at the start of row 0 hold the zone's
// chunk-metadata array.
func (g Geometry) CMChunks() uint64 {
	cmBytes := g.ChunksPerZone() * CMEntrySize
	return (cmBytes + g.ChunkSize - 1) / g.ChunkSize
}

// LanesOff returns the offset of the primary lane region.
func (g Geometry) LanesOff() uint64 { return 4 * PageSize }

// LanesReplicaOff returns the offset of the lane replica region.
func (g Geometry) LanesReplicaOff() uint64 { return g.LanesOff() + g.NumLanes*g.LaneSize }

// OverflowOff returns the offset of the primary log-overflow region.
func (g Geometry) OverflowOff() uint64 { return g.LanesReplicaOff() + g.NumLanes*g.LaneSize }

// OverflowReplicaOff returns the offset of the overflow replica region.
func (g Geometry) OverflowReplicaOff() uint64 {
	return g.OverflowOff() + g.OverflowExts*g.OverflowExtSize
}

// ZonesOff returns the page-aligned offset where zones begin.
func (g Geometry) ZonesOff() uint64 {
	off := g.OverflowReplicaOff() + g.OverflowExts*g.OverflowExtSize
	return (off + PageSize - 1) &^ uint64(PageSize-1)
}

// PoolSize returns the device size needed for this geometry.
func (g Geometry) PoolSize() uint64 { return g.ZonesOff() + g.NumZones*g.ZoneSize() }

// ZoneBase returns the offset of zone z.
func (g Geometry) ZoneBase(z uint64) uint64 { return g.ZonesOff() + z*g.ZoneSize() }

// ZoneHeaderOff returns the offset of zone z's primary header page.
func (g Geometry) ZoneHeaderOff(z uint64) uint64 { return g.ZoneBase(z) }

// ZoneHeaderReplicaOff returns the offset of zone z's replica header page.
func (g Geometry) ZoneHeaderReplicaOff(z uint64) uint64 { return g.ZoneBase(z) + PageSize }

// RowsBase returns the offset of zone z's first data row.
func (g Geometry) RowsBase(z uint64) uint64 { return g.ZoneBase(z) + 2*PageSize }

// ParityBase returns the offset of zone z's parity row.
func (g Geometry) ParityBase(z uint64) uint64 {
	return g.RowsBase(z) + g.DataRows()*g.RowSize()
}

// ChunkBase returns the offset of chunk c (0-based across data rows) of
// zone z. Chunks are contiguous: rows "wrap around" so multi-chunk
// allocations may cross row boundaries (§3.1).
func (g Geometry) ChunkBase(z, c uint64) uint64 { return g.RowsBase(z) + c*g.ChunkSize }

// CMEntryOff returns the offset of chunk c's metadata entry in zone z. The
// array occupies the first CMChunks chunks of row 0 and is parity-covered.
func (g Geometry) CMEntryOff(z, c uint64) uint64 { return g.RowsBase(z) + c*CMEntrySize }

// LaneOff returns the offset of lane l's primary log.
func (g Geometry) LaneOff(l uint64) uint64 { return g.LanesOff() + l*g.LaneSize }

// LaneReplicaOff returns the offset of lane l's replica log.
func (g Geometry) LaneReplicaOff(l uint64) uint64 { return g.LanesReplicaOff() + l*g.LaneSize }

// OverflowExtOff returns the offset of overflow extent e (primary).
func (g Geometry) OverflowExtOff(e uint64) uint64 {
	return g.OverflowOff() + e*g.OverflowExtSize
}

// OverflowExtReplicaOff returns the offset of overflow extent e's replica.
func (g Geometry) OverflowExtReplicaOff(e uint64) uint64 {
	return g.OverflowReplicaOff() + e*g.OverflowExtSize
}

// BadPageRecOff is the offset of the primary bad-page recovery record page.
func BadPageRecOff() uint64 { return 2 * PageSize }

// BadPageRecReplicaOff is the offset of the replica bad-page record page.
func BadPageRecReplicaOff() uint64 { return 3 * PageSize }

// Loc identifies a byte inside a zone's data rows in row/column form.
type Loc struct {
	Zone uint64
	Row  uint64 // data-row index, 0-based
	Col  uint64 // byte offset within the row (the "range column" position)
}

// InZoneData reports whether pool offset off lies inside some zone's data
// rows (the parity-protected region).
func (g Geometry) InZoneData(off uint64) bool {
	if off < g.ZonesOff() || off >= g.PoolSize() {
		return false
	}
	rel := (off - g.ZonesOff()) % g.ZoneSize()
	return rel >= 2*PageSize && rel < 2*PageSize+g.ZoneDataSize()
}

// InZoneParity reports whether pool offset off lies inside some zone's
// parity row.
func (g Geometry) InZoneParity(off uint64) bool {
	if off < g.ZonesOff() || off >= g.PoolSize() {
		return false
	}
	rel := (off - g.ZonesOff()) % g.ZoneSize()
	return rel >= 2*PageSize+g.ZoneDataSize() && rel < 2*PageSize+g.RowsPerZone*g.RowSize()
}

// Locate maps a pool offset inside zone data rows to its (zone, row,
// column). It panics if off is not within any zone's data rows; callers
// gate on InZoneData.
func (g Geometry) Locate(off uint64) Loc {
	if !g.InZoneData(off) {
		panic(fmt.Sprintf("layout: offset %#x is not in zone data", off))
	}
	z := (off - g.ZonesOff()) / g.ZoneSize()
	rel := off - g.RowsBase(z)
	return Loc{Zone: z, Row: rel / g.RowSize(), Col: rel % g.RowSize()}
}

// Resolved is a Geometry with the derived offsets of its zone arithmetic
// computed once. Geometry's own methods re-derive ZonesOff, ZoneSize and
// PoolSize from the nine fields on every call, which is fine for format,
// recovery and scrub code but not for the per-object paths (reads, commit
// write-back, parity folds); those build a Resolved when the engine,
// allocator or parity manager is constructed and locate through it. The
// Geometry methods stay the reference the tests hold this form against.
type Resolved struct {
	zonesOff  uint64 // first zone's base
	poolSize  uint64
	zoneSize  uint64
	dataSize  uint64 // bytes of data rows per zone
	rowSize   uint64
	chunkSize uint64
}

// zoneDataOff is the zone-relative offset of data row 0: past the zone
// header and its replica.
const zoneDataOff = 2 * PageSize

// Resolve computes g's derived offsets. g must be valid.
func (g Geometry) Resolve() Resolved {
	return Resolved{
		zonesOff:  g.ZonesOff(),
		poolSize:  g.PoolSize(),
		zoneSize:  g.ZoneSize(),
		dataSize:  g.ZoneDataSize(),
		rowSize:   g.RowSize(),
		chunkSize: g.ChunkSize,
	}
}

// zoneData maps a pool offset to its zone and its byte index within that
// zone's data rows, reporting false when off is not zone data (pool
// metadata, a zone header, a parity row, or past the pool).
func (r *Resolved) zoneData(off uint64) (z, idx uint64, ok bool) {
	if off < r.zonesOff || off >= r.poolSize {
		return 0, 0, false
	}
	d := off - r.zonesOff
	z = d / r.zoneSize
	// Below the first data row the subtraction wraps past dataSize.
	idx = d - z*r.zoneSize - zoneDataOff
	return z, idx, idx < r.dataSize
}

// Locate is Geometry.Locate with the InZoneData gate folded in: ok is
// false, instead of a panic, when off lies outside every zone's data rows.
func (r *Resolved) Locate(off uint64) (loc Loc, ok bool) {
	z, idx, ok := r.zoneData(off)
	if !ok {
		return Loc{}, false
	}
	row := idx / r.rowSize
	return Loc{Zone: z, Row: row, Col: idx - row*r.rowSize}, true
}

// ChunkLoc identifies a byte inside a zone's data rows in chunk form, the
// allocator's addressing (chunks run contiguously across rows).
type ChunkLoc struct {
	Zone  uint64
	Chunk uint64 // 0-based across the zone's data rows
	Rel   uint64 // byte offset within the chunk
}

// LocateChunk is Locate in chunk form.
func (r *Resolved) LocateChunk(off uint64) (loc ChunkLoc, ok bool) {
	z, idx, ok := r.zoneData(off)
	if !ok {
		return ChunkLoc{}, false
	}
	c := idx / r.chunkSize
	return ChunkLoc{Zone: z, Chunk: c, Rel: idx - c*r.chunkSize}, true
}

// RowSize returns the bytes in one chunk row.
func (r *Resolved) RowSize() uint64 { return r.rowSize }

// ChunkBase returns the offset of chunk c of zone z.
func (r *Resolved) ChunkBase(z, c uint64) uint64 {
	return r.zonesOff + z*r.zoneSize + zoneDataOff + c*r.chunkSize
}

// ParityOff returns the pool offset of the parity byte covering column col
// of zone z.
func (r *Resolved) ParityOff(z, col uint64) uint64 {
	return r.zonesOff + z*r.zoneSize + zoneDataOff + r.dataSize + col
}

// RowByteOff is the inverse of Locate: the pool offset of (zone, row, col).
func (g Geometry) RowByteOff(z, row, col uint64) uint64 {
	return g.RowsBase(z) + row*g.RowSize() + col
}

// ParityOff returns the pool offset of the parity byte covering column col
// of zone z.
func (g Geometry) ParityOff(z, col uint64) uint64 { return g.ParityBase(z) + col }
