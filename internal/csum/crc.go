package csum

import "hash/crc32"

// crcTable is the Castagnoli table, matching the CRC32C most storage systems
// (and the paper's ISA-L usage) prefer for data integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC32 computes the CRC32C checksum of data. It is kept as the ablation
// baseline for the "incremental Adler vs. full CRC" comparison of §3.5,
// where the paper picks Adler-32 for its incremental update. CRC has one
// too: it is linear over GF(2), so replacing a range changes the checksum
// by the raw CRC of old⊕new shifted through the object's n−off−len tail
// bytes, which costs at most one CRC over zeros, not a rescan of the
// object (ROADMAP item 20 weighs moving objects to it).
func CRC32(data []byte) uint32 {
	return crc32.Checksum(data, crcTable)
}
