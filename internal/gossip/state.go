// Package gossip implements the push-pull anti-entropy protocol MyStore
// uses for state transfer and failure detection (paper §5.2.3). Each node
// maintains a versioned group of key-value states per endpoint; a gossip
// round is the paper's three-message exchange
//
//	A --GossipDigestSynMessage-->  B   (digests: addr, generation, max version)
//	B --GossipDigestAck1Message--> A   (states newer at B + digests B wants)
//	A --GossipDigestAck2Message--> B   (states A has that B asked for)
//
// Seed nodes are gossiped to preferentially; they confirm long failures,
// which then spread to every node as a versioned "removed" state (§5.2.4).
package gossip

import (
	"fmt"
	"sort"
	"strings"

	"mystore/internal/bson"
)

// Status is a node's health as locally believed.
type Status int

// Statuses a node can hold. ShortFail corresponds to the paper's
// self-recovering short failure (the node has merely gone quiet); LongFail
// is a seed-confirmed departure requiring re-replication.
const (
	statusUnknown Status = iota // the zero value: nothing heard of the node yet
	StatusUp
	StatusShortFail
	StatusLongFail
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusUp:
		return "up"
	case StatusShortFail:
		return "short-fail"
	case StatusLongFail:
		return "long-fail"
	default:
		return "unknown"
	}
}

// VersionedValue is one state entry: an opaque string with a version that
// grows monotonically within a generation.
type VersionedValue struct {
	Value   string
	Version int64
}

// EndpointState is everything one node asserts about itself: its boot
// generation, its heartbeat counter, and its application states (load,
// virtual-node count, removal assertions...).
type EndpointState struct {
	Generation int64 // boot time; restarting bumps it
	Heartbeat  int64 // incremented every gossip tick
	States     map[string]VersionedValue
}

// maxVersion is the digest version: the largest version across heartbeat
// and states.
func (e *EndpointState) maxVersion() int64 {
	v := e.Heartbeat
	for _, s := range e.States {
		if s.Version > v {
			v = s.Version
		}
	}
	return v
}

func (e *EndpointState) clone() *EndpointState {
	c := &EndpointState{Generation: e.Generation, Heartbeat: e.Heartbeat,
		States: make(map[string]VersionedValue, len(e.States))}
	for k, v := range e.States {
		c.States[k] = v
	}
	return c
}

// newerThan reports whether e is strictly newer than (generation, version).
func (e *EndpointState) newerThan(generation, version int64) bool {
	if e.Generation != generation {
		return e.Generation > generation
	}
	return e.maxVersion() > version
}

// digest is one endpoint's line in a GossipDigestSynMessage.
type digest struct {
	Addr       string
	Generation int64
	MaxVersion int64
}

// String renders the digest in the paper's template form
// "HostAddress@VirtualNode;...;heartbeat:heartBeatVersion;...".
func (d digest) String() string {
	return fmt.Sprintf("%s;bootGeneration:%d;maxVersion:%d", d.Addr, d.Generation, d.MaxVersion)
}

// --- wire encoding ---

func digestsToBSON(ds []digest) bson.A {
	out := make(bson.A, len(ds))
	for i, d := range ds {
		out[i] = bson.D{
			{Key: "addr", Value: d.Addr},
			{Key: "gen", Value: d.Generation},
			{Key: "ver", Value: d.MaxVersion},
		}
	}
	return out
}

func digestsFromBSON(v any) []digest {
	arr, ok := v.(bson.A)
	if !ok {
		return nil
	}
	out := make([]digest, 0, len(arr))
	for _, e := range arr {
		d, ok := e.(bson.D)
		if !ok {
			continue
		}
		gen, _ := d.Get("gen")
		ver, _ := d.Get("ver")
		genI, _ := gen.(int64)
		verI, _ := ver.(int64)
		out = append(out, digest{Addr: d.StringOr("addr", ""), Generation: genI, MaxVersion: verI})
	}
	return out
}

func statesToBSON(m map[string]*EndpointState) bson.A {
	addrs := make([]string, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	out := make(bson.A, 0, len(m))
	for _, addr := range addrs {
		es := m[addr]
		entries := bson.A{}
		keys := make([]string, 0, len(es.States))
		for k := range es.States {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vv := es.States[k]
			entries = append(entries, bson.D{
				{Key: "key", Value: k},
				{Key: "val", Value: vv.Value},
				{Key: "ver", Value: vv.Version},
			})
		}
		out = append(out, bson.D{
			{Key: "addr", Value: addr},
			{Key: "gen", Value: es.Generation},
			{Key: "hb", Value: es.Heartbeat},
			{Key: "states", Value: entries},
		})
	}
	return out
}

func statesFromBSON(v any) map[string]*EndpointState {
	arr, ok := v.(bson.A)
	if !ok {
		return nil
	}
	out := make(map[string]*EndpointState, len(arr))
	for _, e := range arr {
		d, ok := e.(bson.D)
		if !ok {
			continue
		}
		addr := d.StringOr("addr", "")
		if addr == "" {
			continue
		}
		genV, _ := d.Get("gen")
		hbV, _ := d.Get("hb")
		gen, _ := genV.(int64)
		hb, _ := hbV.(int64)
		es := &EndpointState{Generation: gen, Heartbeat: hb, States: map[string]VersionedValue{}}
		if sv, ok := d.Get("states"); ok {
			if entries, ok := sv.(bson.A); ok {
				for _, ee := range entries {
					ed, ok := ee.(bson.D)
					if !ok {
						continue
					}
					verV, _ := ed.Get("ver")
					ver, _ := verV.(int64)
					es.States[ed.StringOr("key", "")] = VersionedValue{
						Value:   ed.StringOr("val", ""),
						Version: ver,
					}
				}
			}
		}
		out[addr] = es
	}
	return out
}

// removedKey is the app-state key a seed publishes to assert that addr has
// long-failed; the assertion spreads like any other versioned state.
func removedKey(addr string) string { return "removed:" + addr }

// removedSubject extracts the failed address from a removal key.
func removedSubject(key string) (string, bool) {
	if rest, ok := strings.CutPrefix(key, "removed:"); ok {
		return rest, true
	}
	return "", false
}
