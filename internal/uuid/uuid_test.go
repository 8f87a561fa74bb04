package uuid

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewObjectIdUnique(t *testing.T) {
	seen := make(map[ObjectId]bool)
	for i := 0; i < 10000; i++ {
		id := NewObjectId()
		if seen[id] {
			t.Fatalf("duplicate ObjectId after %d generations: %s", i, id)
		}
		seen[id] = true
	}
}

func TestNewObjectIdConcurrentUnique(t *testing.T) {
	const workers, per = 8, 2000
	var mu sync.Mutex
	seen := make(map[ObjectId]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ObjectId, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, NewObjectId())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate ObjectId under concurrency: %s", id)
					return
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestObjectIdTimestamp(t *testing.T) {
	at := time.Date(2013, 1, 31, 12, 0, 0, 0, time.UTC)
	id := NewObjectIdAt(at)
	if got := id.timestamp().UTC(); !got.Equal(at) {
		t.Fatalf("Timestamp() = %v, want %v", got, at)
	}
}

func TestObjectIdHexRoundTrip(t *testing.T) {
	id := NewObjectId()
	parsed, err := parseObjectId(id.Hex())
	if err != nil {
		t.Fatalf("parseObjectId(%q): %v", id.Hex(), err)
	}
	if parsed != id {
		t.Fatalf("round trip changed id: %s != %s", parsed, id)
	}
}

func TestParseObjectIdErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", strings.Repeat("z", 24), strings.Repeat("a", 23)} {
		if _, err := parseObjectId(bad); err == nil {
			t.Errorf("parseObjectId(%q) succeeded, want error", bad)
		}
	}
}

func TestObjectIdString(t *testing.T) {
	id := NewObjectId()
	s := id.String()
	if !strings.HasPrefix(s, `ObjectId("`) || !strings.HasSuffix(s, `")`) {
		t.Fatalf("String() = %q, want ObjectId(\"...\") form", s)
	}
}

func TestObjectIdIsZero(t *testing.T) {
	if !(ObjectId{}).isZero() {
		t.Error("zero ObjectId not reported as zero")
	}
	if NewObjectId().isZero() {
		t.Error("fresh ObjectId reported as zero")
	}
}

func TestUUIDVersionAndVariant(t *testing.T) {
	for i := 0; i < 100; i++ {
		u := NewUUID()
		if v := u[6] >> 4; v != 4 {
			t.Fatalf("UUID version = %d, want 4", v)
		}
		if u[8]&0xc0 != 0x80 {
			t.Fatalf("UUID variant bits = %08b, want 10xxxxxx", u[8])
		}
	}
}

func TestUUIDStringRoundTrip(t *testing.T) {
	u := NewUUID()
	s := u.String()
	if len(s) != 36 {
		t.Fatalf("String() length = %d, want 36", len(s))
	}
	parsed, err := parseUUID(s)
	if err != nil {
		t.Fatalf("parseUUID(%q): %v", s, err)
	}
	if parsed != u {
		t.Fatalf("round trip changed UUID: %s != %s", parsed, u)
	}
}

func TestParseUUIDErrors(t *testing.T) {
	for _, bad := range []string{"", "not-a-uuid", strings.Repeat("a", 36)} {
		if _, err := parseUUID(bad); err == nil {
			t.Errorf("parseUUID(%q) succeeded, want error", bad)
		}
	}
}

func TestUUIDUnique(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 10000; i++ {
		u := NewUUID()
		if seen[u] {
			t.Fatalf("duplicate UUID after %d generations", i)
		}
		seen[u] = true
	}
}

func TestObjectIdHexPropertyRoundTrip(t *testing.T) {
	f := func(raw [12]byte) bool {
		id := ObjectId(raw)
		parsed, err := parseObjectId(id.Hex())
		return err == nil && parsed == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// timestamp returns the creation time recorded in the id, at second
// granularity.
func (id ObjectId) timestamp() time.Time {
	return time.Unix(int64(binary.BigEndian.Uint32(id[0:4])), 0)
}

// isZero reports whether the id is the all-zero (unset) ObjectId.
func (id ObjectId) isZero() bool {
	return id == ObjectId{}
}

// errBadObjectId is returned by parseObjectId for malformed input.
var errBadObjectId = errors.New("uuid: malformed ObjectId hex string")

// parseObjectId parses the 24-character hex form produced by Hex.
func parseObjectId(s string) (ObjectId, error) {
	var id ObjectId
	if len(s) != 24 {
		return id, errBadObjectId
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, errBadObjectId
	}
	copy(id[:], b)
	return id, nil
}

// parseUUID parses the canonical form produced by String.
func parseUUID(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return u, fmt.Errorf("uuid: malformed UUID %q", s)
	}
	clean := s[0:8] + s[9:13] + s[14:18] + s[19:23] + s[24:36]
	b, err := hex.DecodeString(clean)
	if err != nil {
		return u, fmt.Errorf("uuid: malformed UUID %q: %w", s, err)
	}
	copy(u[:], b)
	return u, nil
}
