package mystore

import (
	"context"
	"io"

	"mystore/internal/largeobj"
)

// Large-object support: the segmentation of big values (guideline videos
// and the like) the paper lists as future work. A large object is split
// into fixed-size chunk records plus a manifest under the object's key;
// chunks replicate independently across the ring.

// LargeObjectManifest describes a stored large object.
type LargeObjectManifest = largeobj.Manifest

// LargeObjectConfig tunes segmentation; the zero value uses 1 MiB chunks.
// Chunks transfer four at a time.
type LargeObjectConfig = largeobj.Config

// PutLarge streams r into the cluster as a segmented object under key.
func PutLarge(ctx context.Context, c *Client, key string, r io.Reader, cfg LargeObjectConfig) (LargeObjectManifest, error) {
	return largeobj.Upload(ctx, c, key, r, cfg)
}

// GetLarge fetches a segmented object into memory, verifying its checksum.
func GetLarge(ctx context.Context, c *Client, key string) ([]byte, error) {
	return largeobj.Download(ctx, c, key, LargeObjectConfig{})
}

// GetLargeTo streams a segmented object to w, verifying its checksum.
func GetLargeTo(ctx context.Context, c *Client, key string, w io.Writer) (LargeObjectManifest, error) {
	return largeobj.DownloadTo(ctx, c, key, w, LargeObjectConfig{})
}

// StatLarge fetches a segmented object's manifest.
func StatLarge(ctx context.Context, c *Client, key string) (LargeObjectManifest, error) {
	return largeobj.Stat(ctx, c, key)
}

// DeleteLarge removes a segmented object and its chunks.
func DeleteLarge(ctx context.Context, c *Client, key string) error {
	return largeobj.Remove(ctx, c, key, LargeObjectConfig{})
}
