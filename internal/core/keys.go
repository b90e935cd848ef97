package core

import (
	"encoding/binary"

	"repro/internal/btree"
	"repro/internal/sequence"
)

// B-tree key layout (§3, "B-tree indexing for inverted lists"): each block
// of an inverted list is one entry whose key concatenates
//
//	rank(item)  — 4 bytes big-endian; groups a list's blocks together
//	tag         — the sequence form of the block's last record, in the
//	              self-delimiting order-preserving encoding of package
//	              sequence
//	lastID      — 4 bytes big-endian; the block's last record id, which
//	              makes keys unique and enables id-directed seeks
//
// Bytewise order over these keys equals (rank, tag, id) logical order.

// appendBlockKey appends the key for a block of rank's list ending at
// record lastID whose sequence form is tag.
func appendBlockKey(dst []byte, rank sequence.Rank, tag []sequence.Rank, lastID uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, rank)
	dst = sequence.AppendTag(dst, tag)
	return binary.BigEndian.AppendUint32(dst, lastID)
}

// keyRank reads the rank prefix without parsing the rest.
func keyRank(k []byte) sequence.Rank { return binary.BigEndian.Uint32(k) }

// keyLastID reads the record-id suffix without parsing the tag.
func keyLastID(k []byte) uint32 { return binary.BigEndian.Uint32(k[len(k)-4:]) }

// appendTagProbe appends a seek probe positioning at the first block of
// rank whose tag is >= sf. It omits the id suffix: being a strict prefix
// of any equal-tag key, it sorts before all of them. Probes are built
// into the query arena's recycled buffer.
func appendTagProbe(dst []byte, rank sequence.Rank, sf []sequence.Rank) []byte {
	dst = binary.BigEndian.AppendUint32(dst, rank)
	return sequence.AppendTag(dst, sf)
}

// appendIDProbe appends the probe payload for id-directed seeks: rank
// then record id.
func appendIDProbe(dst []byte, rank sequence.Rank, id uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, rank)
	return binary.BigEndian.AppendUint32(dst, id)
}

// idProbeCompare orders an idProbe against stored block keys by
// (rank, lastID), ignoring the tag bytes. Valid because within one rank's
// key range tag order and lastID order coincide — the OIF's global
// ordering property. Implements btree.Compare.
func idProbeCompare(probe, key []byte) int {
	pr, kr := binary.BigEndian.Uint32(probe), keyRank(key)
	switch {
	case pr < kr:
		return -1
	case pr > kr:
		return 1
	}
	pid, kid := binary.BigEndian.Uint32(probe[4:]), keyLastID(key)
	switch {
	case pid < kid:
		return -1
	case pid > kid:
		return 1
	}
	return 0
}

// Assert idProbeCompare satisfies the btree comparator contract.
var _ btree.Compare = idProbeCompare
