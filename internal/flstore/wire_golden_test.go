package flstore

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/maintainer_wire.golden from the current codecs")

// recordingClient forwards calls to an rpc.Client and keeps a copy of each
// request and response payload.
type recordingClient struct {
	c rpc.Client

	mu    sync.Mutex
	calls []recordedCall
}

type recordedCall struct {
	msgType   uint8
	req, resp []byte
	err       string
}

func (r *recordingClient) Call(msgType uint8, payload []byte) ([]byte, error) {
	resp, err := r.c.Call(msgType, payload)
	call := recordedCall{
		msgType: msgType,
		req:     append([]byte(nil), payload...),
		resp:    append([]byte(nil), resp...),
	}
	if err != nil {
		call.err = err.Error()
	}
	r.mu.Lock()
	r.calls = append(r.calls, call)
	r.mu.Unlock()
	return resp, err
}

func (r *recordingClient) Close() error { return r.c.Close() }

func (r *recordingClient) take() []recordedCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

func goldenRecs(recs []*core.Record) string {
	parts := make([]string, len(recs))
	for i, r := range recs {
		parts[i] = fmt.Sprintf("%d:%s", r.LId, r.Body)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestMaintainerWireGolden pins the bytes of every maintainer message: each
// client stub method is driven against two in-process maintainers through
// a recording rpc.Client, and the request and response payloads it sees
// (plus the decoded result) must match the golden file byte for byte.
// Regenerate deliberately with -update-golden.
func TestMaintainerWireGolden(t *testing.T) {
	p := Placement{NumMaintainers: 2, BatchSize: 4}
	var stubs [2]MaintainerAPI
	var recs [2]*recordingClient
	for i := range stubs {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		ServeMaintainer(srv, m)
		recs[i] = &recordingClient{c: rpc.NewLocalClient(srv)}
		stubs[i] = NewMaintainerClient(recs[i])
	}
	type full interface {
		MaintainerAPI
		ReplicaAPI
		DurableGossipAPI
		InvalidationAPI
		RangeReadAPI
	}
	m0, m1 := stubs[0].(full), stubs[1].(full)
	tagged := func(lid uint64, body string) *core.Record {
		return &core.Record{LId: lid, TOId: 7, Host: 1, Deps: []core.Dep{{DC: 0, TOId: 3}},
			Tags: []core.Tag{{Key: "k", Value: body}}, Body: []byte(body)}
	}
	var appended []*core.Record
	steps := []struct {
		name string
		at   int
		call func() string
	}{
		{"Append", 0, func() string {
			appended = []*core.Record{tagged(0, "a1"), tagged(0, "a2"), tagged(0, "a3")}
			lids, err := m0.Append(appended)
			return fmt.Sprint(lids, err)
		}},
		{"Invalidate", 1, func() string { return fmt.Sprint(m1.Invalidate(0, 4)) }},
		{"ReplicaAppend", 1, func() string { return fmt.Sprint(m1.ReplicaAppend(appended)) }},
		{"AppendAssigned", 0, func() string { return fmt.Sprint(m0.AppendAssigned([]*core.Record{tagged(4, "s4")})) }},
		{"AppendAfter", 0, func() string {
			lids, err := m0.AppendAfter(2, []*core.Record{{Body: []byte("after")}})
			return fmt.Sprint(lids, err)
		}},
		{"AppendFor", 0, func() string {
			lids, err := m0.AppendFor(1, []*core.Record{{Body: []byte("f5")}, {Body: []byte("f6")}})
			return fmt.Sprint(lids, err)
		}},
		{"Read", 0, func() string {
			r, err := m0.Read(2)
			if err != nil {
				return err.Error()
			}
			return goldenRecs([]*core.Record{r})
		}},
		{"Scan", 0, func() string {
			rs, err := m0.Scan(core.Rule{MinLId: 1, MaxLId: 9, HasHost: true, Host: 1, MaxTOId: 99,
				TagKey: "k", TagCmp: core.CmpAny, Limit: 10})
			return goldenRecs(rs) + fmt.Sprint(err)
		}},
		{"Head", 0, func() string { h, err := m0.Head(); return fmt.Sprint(h, err) }},
		{"NextUnfilled", 0, func() string { n, err := m0.NextUnfilled(); return fmt.Sprint(n, err) }},
		{"Gossip", 0, func() string { n, err := m0.Gossip(1, 5); return fmt.Sprint(n, err) }},
		{"RangeFrontier", 1, func() string { f, err := m1.RangeFrontier(0); return fmt.Sprint(f, err) }},
		{"PullRange", 0, func() string {
			rs, err := m0.PullRange(0, 2, 2)
			return goldenRecs(rs) + fmt.Sprint(err)
		}},
		{"GossipVec", 1, func() string { v, err := m1.GossipVec([]uint64{3, 7}); return fmt.Sprint(v, err) }},
		{"GossipVecs", 1, func() string {
			n, d, err := m1.GossipVecs([]uint64{5, 7}, []uint64{4, 0})
			return fmt.Sprint(n, d, err)
		}},
		{"ValidityWatermark", 1, func() string {
			wm, ann, err := m1.ValidityWatermark(0)
			return fmt.Sprint(wm, ann, err)
		}},
		{"ReadRange", 0, func() string {
			res, err := m0.ReadRange(RangeQuery{Lo: 1, Hi: 8, Range: -1, MaxRecords: 3, MaxBytes: 4096})
			return goldenRecs(res.Records) + fmt.Sprint(res.CoveredHi, err)
		}},
		{"MultiRead", 0, func() string {
			rs, err := m0.MultiRead([]uint64{3, 1, 6})
			return goldenRecs(rs) + fmt.Sprint(err)
		}},
		{"TailWait", 0, func() string { f, err := m0.TailWait(0, 1, time.Millisecond); return fmt.Sprint(f, err) }},
	}
	var got bytes.Buffer
	for _, s := range steps {
		result := s.call()
		for _, c := range recs[s.at].take() {
			fmt.Fprintf(&got, "%s m%d type=%d req=%s resp=%s err=%q result=%s\n", s.name, s.at, c.msgType,
				hex.EncodeToString(c.req), hex.EncodeToString(c.resp), c.err, result)
		}
	}
	path := filepath.Join("testdata", "maintainer_wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
