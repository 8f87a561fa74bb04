package experiments

import (
	"context"
	"net/http/httptest"
	"sync"
	"time"

	"mystore"
	"mystore/internal/baseline/fsstore"
	"mystore/internal/baseline/sqlstore"
	"mystore/internal/cache"
	"mystore/internal/faults"
	"mystore/internal/rest"
	"mystore/internal/simdisk"
)

// system is one storage pattern under test, bound to a RESTful interface
// exactly as the paper binds all three (§6.1).
type system struct {
	name    string
	gateway *rest.Gateway
	httpSrv *httptest.Server
	cleanup []func()
}

func (s *system) URL() string { return s.httpSrv.URL }

func (s *system) Close() {
	s.httpSrv.Close()
	s.gateway.Close()
	for i := len(s.cleanup) - 1; i >= 0; i-- {
		s.cleanup[i]()
	}
}

// newSystem finishes assembly: gateway + HTTP server.
func newSystem(name string, backend rest.Backend, tier *cache.Tier, cleanup ...func()) *system {
	gw := rest.NewGateway(backend, rest.Config{
		Cache:      tier,
		Workers:    32,
		QueueDepth: 64,
	})
	return &system{
		name:    name,
		gateway: gw,
		httpSrv: httptest.NewServer(gw.Handler()),
		cleanup: cleanup,
	}
}

// wireFaults connects simulated disks and (optionally) a Table 2 injector
// to a MyStore cluster. The injector rolls once per node-level operation
// (put / get / hint) at that node, covering all four fault kinds; a node in
// breakdown is additionally unreachable on the wire, so peers see it fail
// exactly as a crashed server would.
func wireFaults(cl *mystore.Cluster, inj *faults.Injector, disks []*simdisk.Disk) {
	if inj != nil {
		cl.Network().SetFault(func(from, to, msgType string) error {
			if inj.IsDown(to) || inj.IsDown(from) {
				return faults.ErrNodeDown
			}
			return nil
		})
	}
	for i, node := range cl.Nodes() {
		wireNodeFaults(node, inj, disks[i])
	}
}

// wireNodeFaults attaches one node's disk model and fault rolls. A node
// restarted with RestartNodeFresh gets a brand-new coordinator, so the
// chaos harness re-wires it through this after every restart.
func wireNodeFaults(node *mystore.Node, inj *faults.Injector, disk *simdisk.Disk) {
	addr := node.Addr()
	node.Coordinator().OnLocalOp = func(op string, bytes int) error {
		if disk != nil {
			disk.Access(bytes)
		}
		if inj == nil || op == "read-transfer" {
			return nil
		}
		_, err := inj.Roll(addr)
		return err
	}
}

// newDisks returns n simulated disks of the shared hardware model, each
// seeking in seek.
func newDisks(n int, seek time.Duration) []*simdisk.Disk {
	disks := make([]*simdisk.Disk, n)
	for i := range disks {
		disks[i] = simdisk.New(simdisk.Params{Seek: seek, BytesPerSec: diskBW, Spindles: diskSpindles})
	}
	return disks
}

// startLANCluster boots the cluster every MyStore arm runs on: five nodes
// over the simulated LAN, one simulated disk per node, and inj's Table 2
// faults (nil for the no-fault arm). The caller closes the cluster.
func startLANCluster(inj *faults.Injector) (*mystore.Cluster, *mystore.Client, error) {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{
		Nodes: 5, LatencyBase: lanBase, Bandwidth: lanBandwidth,
	})
	if err != nil {
		return nil, nil, err
	}
	wireFaults(cl, inj, newDisks(5, diskSeek))
	client, err := cl.Client()
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return cl, client, nil
}

// paperTier is the cache tier of the paper's deployment: four cache servers
// (on the four normal DB nodes in Fig 10), 64 MB each at laptop scale.
func paperTier() *cache.Tier { return cache.NewTier(4, 64<<20) }

// newMyStoreSystem boots the full MyStore stack: the LAN cluster without
// faults behind the REST gateway, fronted by tier (nil for none).
func newMyStoreSystem(tier *cache.Tier) (*system, error) {
	cl, client, err := startLANCluster(nil)
	if err != nil {
		return nil, err
	}
	return newSystem("MyStore", mystore.ClusterBackend{Client: client}, tier,
		func() { cl.Close() }), nil
}

// newFSSystem is the ext3 baseline: one file server on one simulated disk,
// no cache tier, no replication.
func newFSSystem(dir string) (*system, error) {
	store, err := newFSBackend(dir)
	if err != nil {
		return nil, err
	}
	return newSystem("ext3-FS", store, nil), nil
}

type fsBackend struct {
	inner *fsstore.Store
	disk  *simdisk.Disk
}

func newFSBackend(dir string) (*fsBackend, error) {
	inner, err := fsstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &fsBackend{
		inner: inner,
		disk:  newDisks(1, diskSeek)[0],
	}, nil
}

func (b *fsBackend) Put(ctx context.Context, key string, val []byte) error {
	b.disk.Access(len(val))
	return b.inner.Put(ctx, key, val)
}

func (b *fsBackend) Get(ctx context.Context, key string) ([]byte, error) {
	val, err := b.inner.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	b.disk.Access(len(val))
	return val, nil
}

func (b *fsBackend) Delete(ctx context.Context, key string) error {
	b.disk.Access(0)
	return b.inner.Delete(ctx, key)
}

// newSQLSystem is the MySQL master-slave baseline: a master and two slaves
// each on a simulated disk; the table write lock is held across the
// master's disk write and the synchronous slave writes, and reads are
// served by the master's disk. No cache tier, no partitioning.
func newSQLSystem() *system {
	b := &sqlBackend{inner: sqlstore.New(2), disks: newDisks(3, diskSeek)}
	return newSystem("MySQL-MS", b, nil)
}

type sqlBackend struct {
	inner   *sqlstore.Store
	writeMu sync.Mutex
	disks   []*simdisk.Disk
}

func (b *sqlBackend) Put(ctx context.Context, key string, val []byte) error {
	// The table lock is held across the master write and the synchronous
	// replication to both slaves.
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	for _, d := range b.disks {
		d.Access(len(val))
	}
	return b.inner.Put(ctx, key, val)
}

func (b *sqlBackend) Get(ctx context.Context, key string) ([]byte, error) {
	val, err := b.inner.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	b.disks[0].Access(len(val))
	return val, nil
}

func (b *sqlBackend) Delete(ctx context.Context, key string) error {
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	for _, d := range b.disks {
		d.Access(0)
	}
	return b.inner.Delete(ctx, key)
}
