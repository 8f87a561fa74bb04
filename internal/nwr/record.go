// Package nwr implements MyStore's quorum replication (paper §5.2.2): each
// record is replicated to the N distinct physical nodes that follow its key
// on the consistent-hash ring; a Put succeeds once W replicas acknowledge
// and a Get once R replicas answer. Writes that cannot reach a replica are
// handed to the next node on the ring as a hint (short-failure handling,
// §5.2.4 Fig 8) and written back when the replica returns. Reads collect
// every reachable replica, resolve conflicts last-write-wins, repair stale
// replicas and re-supplement missing ones.
package nwr

import (
	"fmt"
	"time"

	"mystore/internal/bson"
)

// RecordCollection is the docstore collection replicas live in; HintCollection
// holds records parked for unreachable replicas.
const (
	RecordCollection = "records"
	HintCollection   = "hints"
)

// Record is the paper's five-field storage unit plus the version metadata
// last-write-wins needs. A replica stores it under _id = self-key, so the
// store's primary index is the one (and only) index records are read by.
type Record struct {
	Key     string // self-key
	Val     []byte // val: the data entity
	IsData  bool   // isData: false marks a copy made by internal movement
	Deleted bool   // isDel: tombstone flag; deletes never remove the row
	Ver     int64  // _ver: origin timestamp (ns) for last-write-wins
	Origin  string // _origin: coordinator address, tiebreak for equal Ver
	Strong  bool   // _strong: written through a range's consensus log
}

// Newer reports whether r should supersede other under last-write-wins.
func (r Record) Newer(other Record) bool {
	if r.Ver != other.Ver {
		return r.Ver > other.Ver
	}
	return r.Origin > other.Origin
}

// ToDoc renders the record as the paper's BSON document shape. The _strong
// marker rides along only when set, so eventual-tier documents keep their
// original shape.
func (r Record) ToDoc() bson.D {
	d := bson.D{
		{Key: "self-key", Value: r.Key},
		{Key: "val", Value: r.Val},
		{Key: "isData", Value: boolFlag(r.IsData)},
		{Key: "isDel", Value: boolFlag(r.Deleted)},
		{Key: "_ver", Value: r.Ver},
		{Key: "_origin", Value: r.Origin},
	}
	if r.Strong {
		d = append(d, bson.E{Key: "_strong", Value: "1"})
	}
	return d
}

// WithId returns the stored form of the record: ToDoc prefixed with
// _id = self-key. The time argument is unused; the signature is fixed by
// callers outside this module's control (the benchmark's probes).
func (r Record) WithId(time.Time) bson.D {
	return append(bson.D{{Key: "_id", Value: r.Key}}, r.ToDoc()...)
}

func boolFlag(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// RecordFromDoc parses a stored or wire document into a Record.
func RecordFromDoc(d bson.D) (Record, error) {
	r := Record{}
	r.Key = d.StringOr("self-key", "")
	if r.Key == "" {
		return r, fmt.Errorf("nwr: document missing self-key: %s", d)
	}
	if v, ok := d.Get("val"); ok {
		b, isBytes := v.([]byte)
		if !isBytes {
			return r, fmt.Errorf("nwr: val is %T, want binary", v)
		}
		r.Val = b
	}
	r.IsData = d.StringOr("isData", "1") == "1"
	r.Deleted = d.StringOr("isDel", "0") == "1"
	if v, ok := d.Get("_ver"); ok {
		ver, isInt := v.(int64)
		if !isInt {
			return r, fmt.Errorf("nwr: _ver is %T, want int64", v)
		}
		r.Ver = ver
	}
	r.Origin = d.StringOr("_origin", "")
	r.Strong = d.StringOr("_strong", "0") == "1"
	return r, nil
}
