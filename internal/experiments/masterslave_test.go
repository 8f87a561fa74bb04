package experiments

import (
	"errors"
	"fmt"
	"testing"

	"mystore/internal/bson"
)

func msDoc(id, val string) bson.D {
	return bson.D{{Key: "_id", Value: id}, {Key: "self-key", Value: val}}
}

func slaveLen(ms *masterSlave, i int) int { return ms.slaves[i].C(masterSlaveColl).Len() }

func TestMasterSlave(t *testing.T) {
	cases := []struct {
		name   string
		slaves int
		run    func(t *testing.T, ms *masterSlave)
	}{
		{"ships in order", 2, func(t *testing.T, ms *masterSlave) {
			for i := 0; i < 20; i++ {
				if err := ms.Put(msDoc(fmt.Sprintf("k%02d", i), "v")); err != nil {
					t.Fatal(err)
				}
			}
			for i := range ms.slaves {
				if got := slaveLen(ms, i); got != 20 {
					t.Fatalf("slave %d has %d docs, want 20", i, got)
				}
				if lag := len(ms.pending[i]); lag != 0 {
					t.Fatalf("slave %d lags by %d", i, lag)
				}
			}
		}},
		{"get falls back to slaves", 2, func(t *testing.T, ms *masterSlave) {
			if err := ms.Put(msDoc("k", "a")); err != nil {
				t.Fatal(err)
			}
			ms.beforeOp = func(node int, kind string) error {
				if node == 0 {
					return errors.New("master down")
				}
				return nil
			}
			doc, found, err := ms.Get("k")
			if err != nil || !found {
				t.Fatalf("Get via slave = %v, %v, %v", doc, found, err)
			}
		}},
		{"master down fails writes", 1, func(t *testing.T, ms *masterSlave) {
			ms.beforeOp = func(node int, kind string) error {
				if node == 0 && kind == "put" {
					return errors.New("breakdown")
				}
				return nil
			}
			if err := ms.Put(msDoc("x", "v")); !errors.Is(err, errMasterDown) {
				t.Fatalf("err = %v, want errMasterDown", err)
			}
			if n := ms.master.C(masterSlaveColl).Len(); n != 0 {
				t.Fatalf("failed write reached the master (%d docs)", n)
			}
		}},
		{"slave lag and catch-up", 2, func(t *testing.T, ms *masterSlave) {
			slaveDown := true
			ms.beforeOp = func(node int, kind string) error {
				if node == 2 && slaveDown {
					return errors.New("slave 2 down")
				}
				return nil
			}
			for i := 0; i < 10; i++ {
				if err := ms.Put(msDoc(fmt.Sprintf("k%d", i), "v")); err != nil {
					t.Fatal(err)
				}
			}
			if slaveLen(ms, 0) != 10 {
				t.Fatal("healthy slave did not replicate")
			}
			if slaveLen(ms, 1) != 0 {
				t.Fatal("down slave replicated")
			}
			if lag := len(ms.pending[1]); lag != 10 {
				t.Fatalf("down slave lags by %d, want 10", lag)
			}
			slaveDown = false
			ms.CatchUp()
			if got := slaveLen(ms, 1); got != 10 {
				t.Fatalf("slave after catch-up has %d docs, want 10", got)
			}
			if lag := len(ms.pending[1]); lag != 0 {
				t.Fatalf("lag after catch-up = %d", lag)
			}
		}},
		{"order preserved through failure", 1, func(t *testing.T, ms *masterSlave) {
			fail := false
			ms.beforeOp = func(node int, kind string) error {
				if node == 1 && fail {
					return errors.New("down")
				}
				return nil
			}
			for _, v := range []string{"v1", "v2", "v3"} {
				fail = v != "v1" // v2 and v3 queue behind the failure
				if err := ms.Put(msDoc("k", v)); err != nil {
					t.Fatal(err)
				}
			}
			fail = false
			ms.CatchUp()
			doc, ok := ms.slaves[0].C(masterSlaveColl).Get("k")
			if !ok || doc.StringOr("self-key", "") != "v3" {
				t.Fatalf("slave state after ordered catch-up = %s", doc)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := newMasterSlave(tc.slaves)
			if err != nil {
				t.Fatal(err)
			}
			defer ms.Close()
			tc.run(t, ms)
		})
	}
}
