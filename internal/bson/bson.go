// Package bson implements the subset of the BSON (Binary JSON) document
// format MyStore uses for record storage and network transfer. The paper's
// basic unit of writing is "a BSON document similar to MongoDB"; this codec
// supports the element types those records and the query engine need:
// double, string, embedded document, array, binary, ObjectId, boolean,
// UTC datetime, null, int32 and int64.
//
// Documents are ordered: a D preserves the key order it was built with, and
// Marshal/Unmarshal round-trip that order byte-for-byte, which lets the
// storage layer compare encoded documents for identity.
package bson

import (
	"errors"
	"fmt"
	"time"

	"mystore/internal/uuid"
)

// Element type tags from the BSON specification.
const (
	tagDouble   = 0x01
	tagString   = 0x02
	tagDocument = 0x03
	tagArray    = 0x04
	tagBinary   = 0x05
	tagObjectId = 0x07
	tagBool     = 0x08
	tagDatetime = 0x09
	tagNull     = 0x0A
	tagInt32    = 0x10
	tagInt64    = 0x12
)

// MaxDocumentSize bounds a single encoded document. MongoDB 1.6 used 4 MB;
// MyStore stores guideline videos of several MB, so we allow 16 MB.
const MaxDocumentSize = 16 << 20

// MaxDepth bounds document nesting to keep decoding of hostile input cheap.
const MaxDepth = 64

// E is a single key/value element of a document.
type E struct {
	Key   string
	Value any
}

// D is an ordered BSON document. The zero value is an empty document.
type D []E

// A is a BSON array value.
type A []any

// Errors returned by the codec.
var (
	ErrTooLarge   = errors.New("bson: document exceeds maximum size")
	ErrTooDeep    = errors.New("bson: document exceeds maximum nesting depth")
	ErrCorrupt    = errors.New("bson: corrupt document")
	ErrBadElement = errors.New("bson: unsupported element type")
)

// Get returns the value for key and whether it was present. Lookup is linear;
// MyStore records hold five keys.
func (d D) Get(key string) (any, bool) {
	for _, e := range d {
		if e.Key == key {
			return e.Value, true
		}
	}
	return nil, false
}

// Set returns a document with key set to value, replacing an existing element
// in place or appending a new one. The receiver may be mutated and the result
// must be used, in the manner of append.
func (d D) Set(key string, value any) D {
	for i := range d {
		if d[i].Key == key {
			d[i].Value = value
			return d
		}
	}
	return append(d, E{Key: key, Value: value})
}

// Delete returns the document with key removed, preserving order.
func (d D) Delete(key string) D {
	for i := range d {
		if d[i].Key == key {
			return append(d[:i], d[i+1:]...)
		}
	}
	return d
}

// StringOr returns the string value for key, or fallback when the key is
// absent or holds a non-string.
func (d D) StringOr(key, fallback string) string {
	if v, ok := d.Get(key); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return fallback
}

// String renders the document in the shell-like notation the paper uses,
// e.g. {"self-key": "Resistor5", "isData": "1"}.
func (d D) String() string {
	s := "{"
	for i, e := range d {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%q: %s", e.Key, valueString(e.Value))
	}
	return s + "}"
}

func valueString(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case string:
		return fmt.Sprintf("%q", t)
	case []byte:
		return fmt.Sprintf("BinData(0, <%d bytes>)", len(t))
	case uuid.ObjectId:
		return t.String()
	case time.Time:
		return fmt.Sprintf("ISODate(%q)", t.UTC().Format(time.RFC3339Nano))
	case D:
		return t.String()
	case A:
		s := "["
		for i, e := range t {
			if i > 0 {
				s += ", "
			}
			s += valueString(e)
		}
		return s + "]"
	default:
		return fmt.Sprintf("%v", t)
	}
}

// Marshal encodes the document into BSON bytes.
func Marshal(d D) ([]byte, error) {
	return AppendTo(make([]byte, 0, 128), d)
}

// AppendTo encodes the document into BSON appended to dst, returning the
// extended slice. Marshal is AppendTo with a fresh buffer; RPC hot paths
// pass a pooled one so encoding a frame costs no allocation. On error dst is
// returned truncated to its original length.
func AppendTo(dst []byte, d D) ([]byte, error) {
	start := len(dst)
	out, err := appendDocument(dst, d, 0)
	if err != nil {
		return dst[:start], err
	}
	if len(out)-start > MaxDocumentSize {
		return dst[:start], ErrTooLarge
	}
	return out, nil
}

func appendDocument(buf []byte, d D, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return nil, ErrTooDeep
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	var err error
	for _, e := range d {
		if buf, err = appendElement(buf, e.Key, e.Value, depth); err != nil {
			return nil, err
		}
	}
	buf = append(buf, 0)
	putInt32(buf[start:], int32(len(buf)-start))
	return buf, nil
}

func appendElement(buf []byte, key string, v any, depth int) ([]byte, error) {
	switch t := v.(type) {
	case float64:
		buf = appendHeader(buf, tagDouble, key)
		buf = appendInt64(buf, int64(float64bits(t)))
	case float32:
		return appendElement(buf, key, float64(t), depth)
	case string:
		buf = appendHeader(buf, tagString, key)
		buf = appendInt32(buf, int32(len(t)+1))
		buf = append(buf, t...)
		buf = append(buf, 0)
	case D:
		buf = appendHeader(buf, tagDocument, key)
		return appendDocument(buf, t, depth+1)
	case A:
		buf = appendHeader(buf, tagArray, key)
		arr := make(D, len(t))
		for i, el := range t {
			arr[i] = E{Key: itoa(i), Value: el}
		}
		return appendDocument(buf, arr, depth+1)
	case []byte:
		buf = appendHeader(buf, tagBinary, key)
		buf = appendInt32(buf, int32(len(t)))
		buf = append(buf, 0) // generic binary subtype
		buf = append(buf, t...)
	case uuid.ObjectId:
		buf = appendHeader(buf, tagObjectId, key)
		buf = append(buf, t[:]...)
	case bool:
		buf = appendHeader(buf, tagBool, key)
		if t {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case time.Time:
		buf = appendHeader(buf, tagDatetime, key)
		buf = appendInt64(buf, t.UnixMilli())
	case nil:
		buf = appendHeader(buf, tagNull, key)
	case int32:
		buf = appendHeader(buf, tagInt32, key)
		buf = appendInt32(buf, t)
	case int64:
		buf = appendHeader(buf, tagInt64, key)
		buf = appendInt64(buf, t)
	case int:
		buf = appendHeader(buf, tagInt64, key)
		buf = appendInt64(buf, int64(t))
	default:
		return nil, fmt.Errorf("%w: %T for key %q", ErrBadElement, v, key)
	}
	return buf, nil
}

func appendHeader(buf []byte, tag byte, key string) []byte {
	buf = append(buf, tag)
	buf = append(buf, key...)
	return append(buf, 0)
}

// Unmarshal decodes BSON bytes into a document. The input is fully validated:
// truncated or oversized length prefixes, bad tags and missing terminators
// all return ErrCorrupt-wrapped errors rather than panicking.
func Unmarshal(data []byte) (D, error) {
	d, rest, err := readDocument(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return d, nil
}

func readDocument(data []byte, depth int) (D, []byte, error) {
	if depth > MaxDepth {
		return nil, nil, ErrTooDeep
	}
	if len(data) < 5 {
		return nil, nil, fmt.Errorf("%w: document shorter than 5 bytes", ErrCorrupt)
	}
	size := int(getInt32(data))
	if size < 5 || size > len(data) || size > MaxDocumentSize {
		return nil, nil, fmt.Errorf("%w: bad document length %d", ErrCorrupt, size)
	}
	body, rest := data[4:size], data[size:]
	if body[len(body)-1] != 0 {
		return nil, nil, fmt.Errorf("%w: missing document terminator", ErrCorrupt)
	}
	body = body[:len(body)-1]
	var d D
	for len(body) > 0 {
		tag := body[0]
		body = body[1:]
		key, after, err := readCString(body)
		if err != nil {
			return nil, nil, err
		}
		body = after
		var v any
		if v, body, err = readValue(tag, body, depth); err != nil {
			return nil, nil, err
		}
		d = append(d, E{Key: key, Value: v})
	}
	return d, rest, nil
}

func readValue(tag byte, body []byte, depth int) (any, []byte, error) {
	switch tag {
	case tagDouble:
		if len(body) < 8 {
			return nil, nil, truncated("double")
		}
		return float64frombits(uint64(getInt64(body))), body[8:], nil
	case tagString:
		if len(body) < 4 {
			return nil, nil, truncated("string length")
		}
		n := int(getInt32(body))
		body = body[4:]
		if n < 1 || n > len(body) || body[n-1] != 0 {
			return nil, nil, fmt.Errorf("%w: bad string length %d", ErrCorrupt, n)
		}
		return string(body[:n-1]), body[n:], nil
	case tagDocument:
		return readNested(body, depth, false)
	case tagArray:
		return readNested(body, depth, true)
	case tagBinary:
		if len(body) < 5 {
			return nil, nil, truncated("binary header")
		}
		n := int(getInt32(body))
		body = body[5:] // length + subtype byte
		if n < 0 || n > len(body) {
			return nil, nil, fmt.Errorf("%w: bad binary length %d", ErrCorrupt, n)
		}
		b := make([]byte, n)
		copy(b, body[:n])
		return b, body[n:], nil
	case tagObjectId:
		if len(body) < 12 {
			return nil, nil, truncated("ObjectId")
		}
		var id uuid.ObjectId
		copy(id[:], body[:12])
		return id, body[12:], nil
	case tagBool:
		if len(body) < 1 {
			return nil, nil, truncated("bool")
		}
		return body[0] != 0, body[1:], nil
	case tagDatetime:
		if len(body) < 8 {
			return nil, nil, truncated("datetime")
		}
		ms := getInt64(body)
		return time.UnixMilli(ms).UTC(), body[8:], nil
	case tagNull:
		return nil, body, nil
	case tagInt32:
		if len(body) < 4 {
			return nil, nil, truncated("int32")
		}
		return getInt32(body), body[4:], nil
	case tagInt64:
		if len(body) < 8 {
			return nil, nil, truncated("int64")
		}
		return getInt64(body), body[8:], nil
	default:
		return nil, nil, fmt.Errorf("%w: tag 0x%02x", ErrBadElement, tag)
	}
}

func readNested(body []byte, depth int, asArray bool) (any, []byte, error) {
	doc, rest, err := readDocument(body, depth+1)
	if err != nil {
		return nil, nil, err
	}
	if !asArray {
		return doc, rest, nil
	}
	arr := make(A, len(doc))
	for i, e := range doc {
		arr[i] = e.Value
	}
	return arr, rest, nil
}

func readCString(b []byte) (string, []byte, error) {
	for i := 0; i < len(b); i++ {
		if b[i] == 0 {
			return string(b[:i]), b[i+1:], nil
		}
	}
	return "", nil, fmt.Errorf("%w: unterminated key", ErrCorrupt)
}

func truncated(what string) error {
	return fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
}
