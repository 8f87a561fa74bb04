// Package uuid generates the identifiers MyStore uses for records and
// requests: 12-byte ObjectIds in the style of MongoDB (the paper's "_id"
// private key, "automatic generated by UUID algorithm") and RFC 4122 v4
// UUIDs for tokens and request correlation.
package uuid

import (
	"crypto/md5"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// ObjectId is a 12-byte unique identifier: a 4-byte unix timestamp, a 3-byte
// machine hash, a 2-byte process id and a 3-byte monotonically increasing
// counter. Two ObjectIds generated anywhere in a cluster collide only if
// generated on the same machine, in the same process, in the same second,
// 2^24 generations apart.
type ObjectId [12]byte

var (
	objectIdCounter uint32
	machineHash     = computeMachineHash()
	processId       = uint16(os.Getpid())
)

func computeMachineHash() [3]byte {
	host, err := os.Hostname()
	if err != nil {
		host = "mystore-unknown-host"
	}
	sum := md5.Sum([]byte(host))
	return [3]byte{sum[0], sum[1], sum[2]}
}

func init() {
	// Seed the counter randomly so process restarts within the same second
	// do not restart the sequence at zero.
	var b [4]byte
	if _, err := rand.Read(b[:]); err == nil {
		objectIdCounter = binary.BigEndian.Uint32(b[:])
	}
}

// NewObjectId returns a fresh ObjectId stamped with the current time.
func NewObjectId() ObjectId {
	return NewObjectIdAt(time.Now())
}

// NewObjectIdAt returns a fresh ObjectId stamped with the given time. It is
// used by deterministic simulations that run on a virtual clock.
func NewObjectIdAt(t time.Time) ObjectId {
	var id ObjectId
	binary.BigEndian.PutUint32(id[0:4], uint32(t.Unix()))
	copy(id[4:7], machineHash[:])
	binary.BigEndian.PutUint16(id[7:9], processId)
	c := atomic.AddUint32(&objectIdCounter, 1)
	id[9] = byte(c >> 16)
	id[10] = byte(c >> 8)
	id[11] = byte(c)
	return id
}

// Hex returns the 24-character lowercase hexadecimal form of the id.
func (id ObjectId) Hex() string {
	return hex.EncodeToString(id[:])
}

// String implements fmt.Stringer in the notation MongoDB prints.
func (id ObjectId) String() string {
	return fmt.Sprintf("ObjectId(%q)", id.Hex())
}

// UUID is an RFC 4122 random (version 4) UUID.
type UUID [16]byte

// NewUUID returns a cryptographically random v4 UUID.
func NewUUID() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		// crypto/rand failing is unrecoverable for identifier generation;
		// fall back to a time-derived value rather than returning zeros.
		now := time.Now().UnixNano()
		binary.BigEndian.PutUint64(u[0:8], uint64(now))
		binary.BigEndian.PutUint32(u[8:12], atomic.AddUint32(&objectIdCounter, 1))
	}
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // variant 10
	return u
}

// String renders the canonical 8-4-4-4-12 form.
func (u UUID) String() string {
	return fmt.Sprintf("%x-%x-%x-%x-%x", u[0:4], u[4:6], u[6:8], u[8:10], u[10:16])
}
