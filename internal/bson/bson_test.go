package bson

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mystore/internal/uuid"
)

func paperRecord() D {
	id := uuid.ObjectId{0x4e, 0xe4, 0x46, 0x27, 0x39, 0xa8, 0x72, 0x7a, 0xfc, 0x91, 0x7e, 0xe6}
	return D{
		{Key: "_id", Value: id},
		{Key: "self-key", Value: "Resistor5"},
		{Key: "val", Value: []byte("this is test data for read")},
		{Key: "isData", Value: "1"},
		{Key: "isDel", Value: "0"},
	}
}

func TestMarshalUnmarshalPaperRecord(t *testing.T) {
	d := paperRecord()
	enc, err := Marshal(d)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	dec, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(d, dec) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", dec, d)
	}
}

func TestMarshalAllTypes(t *testing.T) {
	when := time.Date(2013, 1, 31, 8, 30, 0, 0, time.UTC)
	d := D{
		{Key: "double", Value: 3.14159},
		{Key: "string", Value: "hello"},
		{Key: "doc", Value: D{{Key: "nested", Value: int32(1)}}},
		{Key: "arr", Value: A{"a", int64(2), true}},
		{Key: "bin", Value: []byte{1, 2, 3}},
		{Key: "oid", Value: uuid.NewObjectId()},
		{Key: "boolT", Value: true},
		{Key: "boolF", Value: false},
		{Key: "time", Value: when},
		{Key: "null", Value: nil},
		{Key: "i32", Value: int32(-42)},
		{Key: "i64", Value: int64(1 << 40)},
	}
	enc, err := Marshal(d)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	dec, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(d, dec) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", dec, d)
	}
}

func TestMarshalIntNormalizesToInt64(t *testing.T) {
	enc, err := Marshal(D{{Key: "n", Value: 7}})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	dec, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if v, _ := dec.Get("n"); v != int64(7) {
		t.Fatalf("int round-tripped as %T(%v), want int64(7)", v, v)
	}
}

func TestMarshalFloat32NormalizesToFloat64(t *testing.T) {
	enc, err := Marshal(D{{Key: "f", Value: float32(1.5)}})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	dec, _ := Unmarshal(enc)
	if v, _ := dec.Get("f"); v != float64(1.5) {
		t.Fatalf("float32 round-tripped as %T(%v), want float64(1.5)", v, v)
	}
}

func TestMarshalUnsupportedType(t *testing.T) {
	_, err := Marshal(D{{Key: "ch", Value: make(chan int)}})
	if !errors.Is(err, ErrBadElement) {
		t.Fatalf("err = %v, want ErrBadElement", err)
	}
}

func TestMarshalPreservesKeyOrder(t *testing.T) {
	d := D{{Key: "z", Value: int32(1)}, {Key: "a", Value: int32(2)}, {Key: "m", Value: int32(3)}}
	enc, _ := Marshal(d)
	dec, _ := Unmarshal(enc)
	keys := make([]string, len(dec))
	for i, e := range dec {
		keys[i] = e.Key
	}
	if !reflect.DeepEqual(keys, []string{"z", "a", "m"}) {
		t.Fatalf("key order = %v", keys)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	d := paperRecord()
	a, _ := Marshal(d)
	b, _ := Marshal(d)
	if !bytes.Equal(a, b) {
		t.Fatal("Marshal is not deterministic")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	valid, _ := Marshal(paperRecord())
	cases := map[string][]byte{
		"empty":            {},
		"short":            {1, 2, 3},
		"bad length small": {4, 0, 0, 0, 0},
		"bad length big":   {0xff, 0xff, 0xff, 0x7f, 0},
		"trailing bytes":   append(append([]byte{}, valid...), 0xde, 0xad),
		"no terminator":    func() []byte { b := append([]byte{}, valid...); b[len(b)-1] = 7; return b }(),
		"truncated body":   valid[:len(valid)-4],
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: Unmarshal succeeded on corrupt input", name)
		}
	}
}

func TestUnmarshalRejectsBadTag(t *testing.T) {
	// Hand-build a document with an unknown tag 0x7f.
	body := []byte{0x7f, 'k', 0x00, 0x00}
	doc := append([]byte{byte(len(body) + 5), 0, 0, 0}, body...)
	doc = append(doc, 0)
	if _, err := Unmarshal(doc); !errors.Is(err, ErrBadElement) {
		t.Fatalf("err = %v, want ErrBadElement", err)
	}
}

func TestDeepNestingRejected(t *testing.T) {
	d := D{{Key: "x", Value: int32(1)}}
	for i := 0; i < MaxDepth+2; i++ {
		d = D{{Key: "n", Value: d}}
	}
	if _, err := Marshal(d); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep", err)
	}
}

func TestGetSetDelete(t *testing.T) {
	d := D{}
	d = d.Set("a", "1")
	d = d.Set("b", "2")
	d = d.Set("a", "updated")
	if v, ok := d.Get("a"); !ok || v != "updated" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if len(d) != 2 {
		t.Fatalf("Set duplicated key: %s", d)
	}
	d = d.Delete("a")
	if has(d, "a") {
		t.Fatal("Delete left key behind")
	}
	if !has(d, "b") {
		t.Fatal("Delete removed wrong key")
	}
	d = d.Delete("missing") // must be a no-op
	if len(d) != 1 {
		t.Fatalf("Delete(missing) changed document: %s", d)
	}
}

func TestStringOr(t *testing.T) {
	d := D{{Key: "s", Value: "v"}, {Key: "n", Value: int32(1)}}
	if got := d.StringOr("s", "x"); got != "v" {
		t.Errorf("StringOr(s) = %q", got)
	}
	if got := d.StringOr("n", "x"); got != "x" {
		t.Errorf("StringOr on non-string = %q, want fallback", got)
	}
	if got := d.StringOr("missing", "x"); got != "x" {
		t.Errorf("StringOr(missing) = %q, want fallback", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := paperRecord().String()
	for _, want := range []string{`"self-key": "Resistor5"`, `ObjectId("4ee4462739a8727afc917ee6")`, "BinData(0,"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %s missing %q", s, want)
		}
	}
	arr := D{{Key: "a", Value: A{int64(1), "x", nil}}, {Key: "t", Value: time.Unix(0, 0)}, {Key: "f", Value: 1.5}}
	if got := arr.String(); !strings.Contains(got, `[1, "x", null]`) {
		t.Errorf("array rendering = %s", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(s string, b []byte, i int64, n int32, fl float64, flag bool) bool {
		if b == nil {
			b = []byte{}
		}
		d := D{
			{Key: "s", Value: s},
			{Key: "b", Value: b},
			{Key: "i", Value: i},
			{Key: "n", Value: n},
			{Key: "f", Value: fl},
			{Key: "flag", Value: flag},
		}
		enc, err := Marshal(d)
		if err != nil {
			return false
		}
		dec, err := Unmarshal(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(d, dec)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Unmarshal(data) //nolint:errcheck // only panic matters here
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyDocument(t *testing.T) {
	enc, err := Marshal(D{})
	if err != nil {
		t.Fatalf("Marshal empty: %v", err)
	}
	if len(enc) != 5 {
		t.Fatalf("empty document = %d bytes, want 5", len(enc))
	}
	dec, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("Unmarshal empty: %v", err)
	}
	if len(dec) != 0 {
		t.Fatalf("empty document decoded to %d elements", len(dec))
	}
}

func BenchmarkMarshalPaperRecord(b *testing.B) {
	d := paperRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalPaperRecord(b *testing.B) {
	enc, _ := Marshal(paperRecord())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// has reports whether key is present in d.
func has(d D, key string) bool {
	_, ok := d.Get(key)
	return ok
}
