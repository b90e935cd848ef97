package core

import (
	"fmt"

	"repro/internal/sequence"
)

// Region is one entry of the paper's metadata table (§3, "Metadata"):
// the contiguous new-id interval [L, U] of records whose smallest
// (most frequent) item has this rank (Theorem 1). U1 extends the table as
// §4.3's footnote suggests: [L, U1] is the sub-interval of cardinality-1
// records (it sits at the front of the region because the singleton {o}
// is the lexicographically smallest set starting with o).
//
// A zero L denotes an empty region — record ids are 1-based.
type Region struct {
	L, U uint32
	U1   uint32 // last id of the cardinality-1 prefix; L-1 if none
}

// Empty reports whether no record has this rank as its smallest item.
func (r Region) Empty() bool { return r.L == 0 }

// Metadata is the memory-resident metadata table: one region per rank,
// plus the empty-set region [1, EmptyUpper] that precedes every item
// region (the paper's order places the empty set first).
type Metadata struct {
	EmptyUpper uint32 // ids [1, EmptyUpper] are empty-set records; 0 if none
	Regions    []Region
}

func newMetadata(domainSize int) *Metadata {
	return &Metadata{Regions: make([]Region, domainSize)}
}

// note records that the record with the given new id has smallest rank
// first and the given cardinality. Ids must arrive in ascending order —
// they do, because the builder walks records in new-id order.
func (m *Metadata) note(first sequence.Rank, id uint32, cardinality int) {
	r := &m.Regions[first]
	if r.Empty() {
		r.L = id
		r.U1 = id - 1
	}
	r.U = id
	if cardinality == 1 {
		r.U1 = id
	}
}

// noteEmpty records an empty-set record (they precede everything).
func (m *Metadata) noteEmpty(id uint32) { m.EmptyUpper = id }

// Bytes reports the table's memory footprint (space accounting): three
// 4-byte ids per region plus the empty bound.
func (m *Metadata) Bytes() int64 { return int64(len(m.Regions))*12 + 4 }

// check reports whether the table is one a build over numRecords records
// could have written: the empty-set run ends within the records, each
// region is empty or a run L <= U1+1 <= U+1, and the non-empty regions,
// in rank order, tile the ids past the empty-set run up to numRecords —
// a record's smallest rank is its region, records ascend by their forms,
// and every record past the empty sets has a smallest rank. The query
// loops walk these runs by id, and forms reads every record's smallest
// rank from them, so Load refuses any other table.
func (m *Metadata) check(numRecords int) error {
	n := uint64(numRecords)
	if uint64(m.EmptyUpper) > n {
		return fmt.Errorf("empty-set run ends at %d, past %d records", m.EmptyUpper, n)
	}
	next := uint64(m.EmptyUpper) + 1 // the id the next region must start at
	for r, reg := range m.Regions {
		if reg.Empty() {
			continue
		}
		if l, u1, u := uint64(reg.L), uint64(reg.U1), uint64(reg.U); l != next || l > u1+1 || u1 > u || u > n {
			return fmt.Errorf("region of rank %d is [%d, %d] with singletons to %d, where id %d is next of %d records", r, l, u, u1, next, n)
		}
		next = uint64(reg.U) + 1
	}
	if next != n+1 {
		return fmt.Errorf("regions end at id %d of %d records", next-1, n)
	}
	return nil
}
