// Package fsstore is the evaluation's first baseline (paper §6.1): storing
// unstructured data as plain files in a local (ext3-style) filesystem with
// an index mapping keys to paths. It is fast on one node but offers no
// replication and no availability under node loss — the trade-off the
// paper's comparison illustrates.
package fsstore

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mystore/internal/rest"
)

// Store keeps one file per object under dir, fanned out over 256
// subdirectories by key hash so no directory grows unbounded — the layout
// the paper's "local file system with an index table" approach implies.
type Store struct {
	mu    sync.RWMutex
	dir   string
	index map[string]string // key -> relative path (the in-memory index table)
}

// Open creates a store rooted at dir, rebuilding the index from files
// already present.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fsstore: create dir: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]string)}
	// Rebuild the index: each fan-out directory holds files named by
	// hex-encoded key.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, sub := range entries {
		if !sub.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			keyBytes, err := hex.DecodeString(f.Name())
			if err != nil {
				continue
			}
			s.index[string(keyBytes)] = filepath.Join(sub.Name(), f.Name())
		}
	}
	return s, nil
}

func (s *Store) pathFor(key string) string {
	sum := md5.Sum([]byte(key))
	return filepath.Join(hex.EncodeToString(sum[:1]), hex.EncodeToString([]byte(key)))
}

// Put writes the value as a file and indexes it.
func (s *Store) Put(_ context.Context, key string, val []byte) error {
	if key == "" {
		return errors.New("fsstore: empty key")
	}
	rel := s.pathFor(key)
	abs := filepath.Join(s.dir, rel)
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		return err
	}
	tmp := abs + ".tmp"
	if err := os.WriteFile(tmp, val, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, abs); err != nil {
		return err
	}
	s.mu.Lock()
	s.index[key] = rel
	s.mu.Unlock()
	return nil
}

// Get reads the value for key.
func (s *Store) Get(_ context.Context, key string) ([]byte, error) {
	s.mu.RLock()
	rel, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", rest.ErrNotFound, key)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, rel))
	if errors.Is(err, os.ErrNotExist) {
		// Index and filesystem diverged — the consistency hazard the paper
		// calls out for this storage pattern.
		s.mu.Lock()
		delete(s.index, key)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", rest.ErrNotFound, key)
	}
	return data, err
}

// Delete removes the file and index entry.
func (s *Store) Delete(_ context.Context, key string) error {
	s.mu.Lock()
	rel, ok := s.index[key]
	delete(s.index, key)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	err := os.Remove(filepath.Join(s.dir, rel))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
