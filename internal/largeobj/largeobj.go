// Package largeobj implements the segmentation of large values — the
// "segmentation, storage and schedule of large video files" the paper
// names as future work (§7). A large object is split into fixed-size
// chunks stored as independent records, described by a manifest record
// stored under the object's own key. Chunks replicate independently, so a
// multi-gigabyte guideline video spreads over the whole cluster instead of
// hammering one replica set, and failed chunk writes retry independently.
//
// Layout:
//
//	<key>              manifest: {"lo": 1, "size", "chunkSize", "chunks", "md5"}
//	<key>\x00c\x00000000   chunk 0
//	<key>\x00c\x00000001   chunk 1 ...
//
// The NUL separators keep chunk keys out of the user keyspace.
package largeobj

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"mystore/internal/bson"
)

// Store is the key-value surface large objects are stored through; the
// cluster client satisfies it.
type Store interface {
	Put(ctx context.Context, key string, val []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
	Delete(ctx context.Context, key string) error
}

// Config tunes segmentation.
type Config struct {
	// ChunkSize is the segment size in bytes. Zero means 1 MiB.
	ChunkSize int
}

// concurrency bounds parallel chunk transfers.
const concurrency = 4

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 1 << 20
	}
	return c
}

// Manifest describes a stored large object.
type Manifest struct {
	Size      int64
	ChunkSize int
	Chunks    int
	MD5       string
}

// Errors returned by the package.
var (
	ErrNotLargeObject = errors.New("largeobj: key does not hold a manifest")
	ErrCorrupt        = errors.New("largeobj: chunk data does not match manifest")
)

func chunkKey(key string, i int) string {
	return fmt.Sprintf("%s\x00c\x00%06d", key, i)
}

func manifestDoc(m Manifest) bson.D {
	return bson.D{
		{Key: "lo", Value: int32(1)},
		{Key: "size", Value: m.Size},
		{Key: "chunkSize", Value: int64(m.ChunkSize)},
		{Key: "chunks", Value: int64(m.Chunks)},
		{Key: "md5", Value: m.MD5},
	}
}

func manifestFromDoc(d bson.D) (Manifest, bool) {
	if v, ok := d.Get("lo"); !ok || v != int32(1) {
		return Manifest{}, false
	}
	m := Manifest{MD5: d.StringOr("md5", "")}
	if v, ok := d.Get("size"); ok {
		m.Size, _ = v.(int64)
	}
	if v, ok := d.Get("chunkSize"); ok {
		cs, _ := v.(int64)
		m.ChunkSize = int(cs)
	}
	if v, ok := d.Get("chunks"); ok {
		n, _ := v.(int64)
		m.Chunks = int(n)
	}
	return m, true
}

// Upload reads r to its end, segments it and stores chunks then manifest.
// Chunks upload concurrently; the manifest is written last so a reader
// never sees a manifest whose chunks are missing.
func Upload(ctx context.Context, s Store, key string, r io.Reader, cfg Config) (Manifest, error) {
	cfg = cfg.withDefaults()
	hash := md5.New()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		sem      = make(chan struct{}, concurrency)
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var size int64
	chunks := 0
	buf := make([]byte, cfg.ChunkSize)
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			hash.Write(buf[:n]) //nolint:errcheck
			size += int64(n)
			data := make([]byte, n)
			copy(data, buf[:n])
			idx := chunks
			chunks++
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				if err := s.Put(ctx, chunkKey(key, idx), data); err != nil {
					fail(fmt.Errorf("largeobj: chunk %d: %w", idx, err))
				}
			}()
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break
		}
		if err != nil {
			wg.Wait()
			return Manifest{}, fmt.Errorf("largeobj: read: %w", err)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return Manifest{}, firstErr
	}
	m := Manifest{
		Size:      size,
		ChunkSize: cfg.ChunkSize,
		Chunks:    chunks,
		MD5:       hex.EncodeToString(hash.Sum(nil)),
	}
	enc, err := bson.Marshal(manifestDoc(m))
	if err != nil {
		return Manifest{}, err
	}
	if err := s.Put(ctx, key, enc); err != nil {
		return Manifest{}, fmt.Errorf("largeobj: manifest: %w", err)
	}
	return m, nil
}

// Stat fetches and parses the manifest for key.
func Stat(ctx context.Context, s Store, key string) (Manifest, error) {
	val, err := s.Get(ctx, key)
	if err != nil {
		return Manifest{}, err
	}
	doc, err := bson.Unmarshal(val)
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: %v", ErrNotLargeObject, err)
	}
	m, ok := manifestFromDoc(doc)
	if !ok {
		return Manifest{}, ErrNotLargeObject
	}
	return m, nil
}

// DownloadTo streams the object to w in order, fetching up to
// concurrency chunks ahead, and verifies the whole-object checksum.
func DownloadTo(ctx context.Context, s Store, key string, w io.Writer, cfg Config) (Manifest, error) {
	cfg = cfg.withDefaults()
	m, err := Stat(ctx, s, key)
	if err != nil {
		return m, err
	}
	type fetched struct {
		data []byte
		err  error
	}
	results := make([]chan fetched, m.Chunks)
	sem := make(chan struct{}, concurrency)
	for i := 0; i < m.Chunks; i++ {
		results[i] = make(chan fetched, 1)
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			data, err := s.Get(ctx, chunkKey(key, i))
			results[i] <- fetched{data: data, err: err}
		}(i)
	}
	hash := md5.New()
	var written int64
	for i := 0; i < m.Chunks; i++ {
		f := <-results[i]
		if f.err != nil {
			return m, fmt.Errorf("largeobj: chunk %d: %w", i, f.err)
		}
		hash.Write(f.data) //nolint:errcheck
		n, err := w.Write(f.data)
		if err != nil {
			return m, err
		}
		written += int64(n)
	}
	if written != m.Size {
		return m, fmt.Errorf("%w: wrote %d of %d bytes", ErrCorrupt, written, m.Size)
	}
	if sum := hex.EncodeToString(hash.Sum(nil)); sum != m.MD5 {
		return m, fmt.Errorf("%w: md5 %s != manifest %s", ErrCorrupt, sum, m.MD5)
	}
	return m, nil
}

// Download fetches the whole object into memory.
func Download(ctx context.Context, s Store, key string, cfg Config) ([]byte, error) {
	var buf bytes.Buffer
	m, err := Stat(ctx, s, key)
	if err != nil {
		return nil, err
	}
	buf.Grow(int(m.Size))
	if _, err := DownloadTo(ctx, s, key, &buf, cfg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Remove deletes the manifest first (so readers stop resolving the object)
// and then the chunks.
func Remove(ctx context.Context, s Store, key string, cfg Config) error {
	m, err := Stat(ctx, s, key)
	if err != nil {
		return err
	}
	if err := s.Delete(ctx, key); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < m.Chunks; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.Delete(ctx, chunkKey(key, i)); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
