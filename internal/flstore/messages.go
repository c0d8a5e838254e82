package flstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Message types of the FLStore wire protocol. The numbers are the wire
// format: each is pinned explicitly so removing or reordering a message
// can never shift another's type.
const (
	msgAppend         uint8 = 1
	msgAppendAssigned uint8 = 2
	msgAppendAfter    uint8 = 3
	msgRead           uint8 = 4
	msgScan           uint8 = 5
	msgHead           uint8 = 6
	msgNextUnfilled   uint8 = 7
	msgGossip         uint8 = 8
	msgPost           uint8 = 9
	msgLookup         uint8 = 10
	msgGetConfig      uint8 = 11
	msgStats          uint8 = 12
	msgAppendFor      uint8 = 13
	msgReplicaAppend  uint8 = 14
	msgRangeFrontier  uint8 = 15
	msgPullRange      uint8 = 16
	msgGossipVec      uint8 = 17
	msgReplicas       uint8 = 18
	msgReadRange      uint8 = 19
	msgMultiRead      uint8 = 20
	msgTailWait       uint8 = 21
	msgInvalidate     uint8 = 22
	msgWatermark      uint8 = 23
	msgGossipVecs     uint8 = 24
	msgAdminEpochs    uint8 = 25
	msgAdminPropose   uint8 = 26
)

// --- encoding helpers ---

func appendRule(dst []byte, ru core.Rule) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ru.MinLId)
	dst = binary.LittleEndian.AppendUint64(dst, ru.MaxLId)
	dst = binary.LittleEndian.AppendUint64(dst, ru.MaxLIdExclusive)
	var hasHost byte
	if ru.HasHost {
		hasHost = 1
	}
	dst = append(dst, hasHost)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(ru.Host))
	dst = binary.LittleEndian.AppendUint64(dst, ru.MinTOId)
	dst = binary.LittleEndian.AppendUint64(dst, ru.MaxTOId)
	dst = wire.AppendString(dst, ru.TagKey)
	dst = append(dst, byte(ru.TagCmp))
	dst = wire.AppendString(dst, ru.TagValue)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ru.Limit))
	var mr byte
	if ru.MostRecent {
		mr = 1
	}
	dst = append(dst, mr)
	return dst
}

func decodeRule(buf []byte) (core.Rule, int, error) {
	var ru core.Rule
	if len(buf) < 8*3+1+2+8*2 {
		return ru, 0, errors.New("flstore: short rule")
	}
	ru.MinLId = binary.LittleEndian.Uint64(buf)
	ru.MaxLId = binary.LittleEndian.Uint64(buf[8:])
	ru.MaxLIdExclusive = binary.LittleEndian.Uint64(buf[16:])
	ru.HasHost = buf[24] == 1
	ru.Host = core.DCID(binary.LittleEndian.Uint16(buf[25:]))
	ru.MinTOId = binary.LittleEndian.Uint64(buf[27:])
	ru.MaxTOId = binary.LittleEndian.Uint64(buf[35:])
	off := 43
	key, n, err := wire.DecodeString(buf[off:])
	if err != nil {
		return ru, 0, err
	}
	ru.TagKey = key
	off += n
	if len(buf) < off+1 {
		return ru, 0, errors.New("flstore: short rule cmp")
	}
	ru.TagCmp = core.CmpOp(buf[off])
	off++
	val, n, err := wire.DecodeString(buf[off:])
	if err != nil {
		return ru, 0, err
	}
	ru.TagValue = val
	off += n
	if len(buf) < off+5 {
		return ru, 0, errors.New("flstore: short rule tail")
	}
	ru.Limit = int(binary.LittleEndian.Uint32(buf[off:]))
	ru.MostRecent = buf[off+4] == 1
	off += 5
	return ru, off, nil
}

func appendLIds(dst []byte, lids []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lids)))
	for _, l := range lids {
		dst = binary.LittleEndian.AppendUint64(dst, l)
	}
	return dst
}

func decodeLIds(buf []byte) ([]uint64, int, error) {
	if len(buf) < 4 {
		return nil, 0, errors.New("flstore: short lid list")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+8*n {
		return nil, 0, errors.New("flstore: short lid list body")
	}
	lids := make([]uint64, n)
	for i := range lids {
		lids[i] = binary.LittleEndian.Uint64(buf[4+8*i:])
	}
	return lids, 4 + 8*n, nil
}

// appendRangeResult encodes a range-read response: the covered-through
// position, then the record batch in the standard count-prefixed frame.
func appendRangeResult(dst []byte, res RangeResult) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, res.CoveredHi)
	return core.AppendRecords(dst, res.Records)
}

// decodeRangeResult decodes a range-read response envelope. The batch is
// arena-decoded (DecodeRecordsShared), so a response of N records costs
// O(1) allocations regardless of N.
func decodeRangeResult(buf []byte) (RangeResult, error) {
	var res RangeResult
	if len(buf) < 8 {
		return res, errors.New("flstore: short range-read response")
	}
	res.CoveredHi = binary.LittleEndian.Uint64(buf)
	recs, _, err := core.DecodeRecordsShared(buf[8:])
	if err != nil {
		return res, err
	}
	res.Records = recs
	return res, nil
}

func appendPostings(dst []byte, ps []Posting) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
	for _, p := range ps {
		dst = wire.AppendString(dst, p.Key)
		dst = wire.AppendString(dst, p.Value)
		dst = binary.LittleEndian.AppendUint64(dst, p.LId)
	}
	return dst
}

func decodePostings(buf []byte) ([]Posting, error) {
	if len(buf) < 4 {
		return nil, errors.New("flstore: short postings")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	off := 4
	ps := make([]Posting, 0, n)
	for i := 0; i < n; i++ {
		key, used, err := wire.DecodeString(buf[off:])
		if err != nil {
			return nil, err
		}
		off += used
		val, used, err := wire.DecodeString(buf[off:])
		if err != nil {
			return nil, err
		}
		off += used
		if len(buf) < off+8 {
			return nil, errors.New("flstore: short posting lid")
		}
		ps = append(ps, Posting{Key: key, Value: val, LId: binary.LittleEndian.Uint64(buf[off:])})
		off += 8
	}
	return ps, nil
}

func appendConfig(dst []byte, cfg *Config) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.Placement.NumMaintainers))
	dst = binary.LittleEndian.AppendUint64(dst, cfg.Placement.BatchSize)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cfg.MaintainerAddrs)))
	for _, a := range cfg.MaintainerAddrs {
		dst = wire.AppendString(dst, a)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cfg.IndexerAddrs)))
	for _, a := range cfg.IndexerAddrs {
		dst = wire.AppendString(dst, a)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cfg.Epochs)))
	for _, e := range cfg.Epochs {
		dst = binary.LittleEndian.AppendUint64(dst, e.FirstLId)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Placement.NumMaintainers))
		dst = binary.LittleEndian.AppendUint64(dst, e.Placement.BatchSize)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.MaintainerAddrs)))
		for _, a := range e.MaintainerAddrs {
			dst = wire.AppendString(dst, a)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.Replication))
	dst = wire.AppendString(dst, cfg.AckPolicy)
	return dst
}

func decodeConfig(buf []byte) (*Config, error) {
	if len(buf) < 12 {
		return nil, errors.New("flstore: short config")
	}
	cfg := &Config{}
	cfg.Placement.NumMaintainers = int(binary.LittleEndian.Uint32(buf))
	cfg.Placement.BatchSize = binary.LittleEndian.Uint64(buf[4:])
	off := 12
	readAddrs := func() ([]string, error) {
		if len(buf) < off+4 {
			return nil, errors.New("flstore: short config addrs")
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		addrs := make([]string, 0, n)
		for i := 0; i < n; i++ {
			s, used, err := wire.DecodeString(buf[off:])
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, s)
			off += used
		}
		return addrs, nil
	}
	var err error
	if cfg.MaintainerAddrs, err = readAddrs(); err != nil {
		return nil, err
	}
	if cfg.IndexerAddrs, err = readAddrs(); err != nil {
		return nil, err
	}
	if len(buf) < off+4 {
		return nil, errors.New("flstore: short config epochs")
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < n; i++ {
		if len(buf) < off+20 {
			return nil, errors.New("flstore: short config epoch")
		}
		e := Epoch{
			FirstLId: binary.LittleEndian.Uint64(buf[off:]),
			Placement: Placement{
				NumMaintainers: int(binary.LittleEndian.Uint32(buf[off+8:])),
				BatchSize:      binary.LittleEndian.Uint64(buf[off+12:]),
			},
		}
		off += 20
		if len(buf) < off+4 {
			return nil, errors.New("flstore: short config epoch addrs")
		}
		na := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		for j := 0; j < na; j++ {
			s, used, err := wire.DecodeString(buf[off:])
			if err != nil {
				return nil, err
			}
			e.MaintainerAddrs = append(e.MaintainerAddrs, s)
			off += used
		}
		cfg.Epochs = append(cfg.Epochs, e)
	}
	if len(buf) < off+4 {
		return nil, errors.New("flstore: short config replication")
	}
	cfg.Replication = int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	ack, _, err := wire.DecodeString(buf[off:])
	if err != nil {
		return nil, err
	}
	cfg.AckPolicy = ack
	return cfg, nil
}

// --- server adapters ---

// ServeMaintainer registers RPC handlers exposing every maintainer
// message of m on srv.
func ServeMaintainer(srv *rpc.Server, m MaintainerAPI) {
	handleRecords(srv, msgAppend, 0, "Append", func(_ []byte, recs []*core.Record) ([]byte, error) {
		return lidsResponse(m.Append(recs))
	})
	handleRecords(srv, msgAppendAssigned, 0, "AppendAssigned", func(_ []byte, recs []*core.Record) ([]byte, error) {
		return nil, m.AppendAssigned(recs)
	})
	handleRecords(srv, msgAppendAfter, 8, "AppendAfter", func(h []byte, recs []*core.Record) ([]byte, error) {
		return lidsResponse(m.AppendAfter(binary.LittleEndian.Uint64(h), recs))
	})
	handleRecords(srv, msgAppendFor, 4, "AppendFor", func(h []byte, recs []*core.Record) ([]byte, error) {
		return lidsResponse(m.AppendFor(int(binary.LittleEndian.Uint32(h)), recs))
	})
	handleRecords(srv, msgReplicaAppend, 0, "ReplicaAppend", func(_ []byte, recs []*core.Record) ([]byte, error) {
		return nil, m.ReplicaAppend(recs)
	})
	srv.Handle(msgRead, func(p []byte) ([]byte, error) {
		if len(p) < 8 {
			return nil, errors.New("flstore: short Read request")
		}
		rec, err := m.Read(binary.LittleEndian.Uint64(p))
		if err != nil {
			return nil, err
		}
		return core.MarshalRecord(rec), nil
	})
	srv.Handle(msgScan, func(p []byte) ([]byte, error) {
		ru, _, err := decodeRule(p)
		if err != nil {
			return nil, err
		}
		return recordsResponse(m.Scan(ru))
	})
	srv.Handle(msgHead, func(p []byte) ([]byte, error) {
		return u64Response(m.Head())
	})
	srv.Handle(msgNextUnfilled, func(p []byte) ([]byte, error) {
		return u64Response(m.NextUnfilled())
	})
	srv.Handle(msgGossip, func(p []byte) ([]byte, error) {
		if len(p) < 12 {
			return nil, errors.New("flstore: short Gossip request")
		}
		return u64Response(m.Gossip(int(binary.LittleEndian.Uint32(p)), binary.LittleEndian.Uint64(p[4:])))
	})
	srv.Handle(msgRangeFrontier, func(p []byte) ([]byte, error) {
		if len(p) < 4 {
			return nil, errors.New("flstore: short RangeFrontier request")
		}
		return u64Response(m.RangeFrontier(int(binary.LittleEndian.Uint32(p))))
	})
	srv.Handle(msgPullRange, func(p []byte) ([]byte, error) {
		if len(p) < 16 {
			return nil, errors.New("flstore: short PullRange request")
		}
		rangeIdx := int(binary.LittleEndian.Uint32(p))
		from := binary.LittleEndian.Uint64(p[4:])
		limit := int(binary.LittleEndian.Uint32(p[12:]))
		return recordsResponse(m.PullRange(rangeIdx, from, limit))
	})
	srv.Handle(msgGossipVec, func(p []byte) ([]byte, error) {
		vec, _, err := decodeLIds(p)
		if err != nil {
			return nil, err
		}
		return lidsResponse(m.GossipVec(vec))
	})
	srv.Handle(msgGossipVecs, func(p []byte) ([]byte, error) {
		next, n, err := decodeLIds(p)
		if err != nil {
			return nil, err
		}
		dur, _, err := decodeLIds(p[n:])
		if err != nil {
			return nil, err
		}
		myNext, myDur, err := m.GossipVecs(next, dur)
		if err != nil {
			return nil, err
		}
		return appendLIds(appendLIds(nil, myNext), myDur), nil
	})
	// msgInvalidate is the fast-path control frame riding ahead of every
	// fan-out payload: two fixed words, no response body, decoded in place.
	srv.Handle(msgInvalidate, func(p []byte) ([]byte, error) {
		if len(p) < 16 {
			return nil, errors.New("flstore: short Invalidate request")
		}
		return nil, m.Invalidate(int(binary.LittleEndian.Uint64(p)), binary.LittleEndian.Uint64(p[8:]))
	})
	srv.Handle(msgWatermark, func(p []byte) ([]byte, error) {
		if len(p) < 8 {
			return nil, errors.New("flstore: short Watermark request")
		}
		wm, ann, err := m.ValidityWatermark(int(binary.LittleEndian.Uint64(p)))
		if err != nil {
			return nil, err
		}
		resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), wm)
		return binary.LittleEndian.AppendUint64(resp, ann), nil
	})
	srv.HandleTraced(msgReadRange, func(tc *trace.Ctx, p []byte) ([]byte, error) {
		if len(p) < 28 {
			return nil, errors.New("flstore: short ReadRange request")
		}
		q := RangeQuery{
			Lo:         binary.LittleEndian.Uint64(p),
			Hi:         binary.LittleEndian.Uint64(p[8:]),
			Range:      int(int32(binary.LittleEndian.Uint32(p[16:]))),
			MaxRecords: int(binary.LittleEndian.Uint32(p[20:])),
			MaxBytes:   int(binary.LittleEndian.Uint32(p[24:])),
			Trace:      *tc,
		}
		res, err := m.ReadRange(q)
		if err != nil {
			return nil, err
		}
		return appendRangeResult(make([]byte, 0, 12+core.EncodedSizeRecords(res.Records)), res), nil
	})
	srv.Handle(msgMultiRead, func(p []byte) ([]byte, error) {
		lids, _, err := decodeLIds(p)
		if err != nil {
			return nil, err
		}
		return recordsResponse(m.MultiRead(lids))
	})
	// msgTailWait is registered detached: a parked long-poll must not
	// head-of-line-block the pipelined requests behind it on a shared
	// connection.
	srv.HandleDetached(msgTailWait, func(p []byte) ([]byte, error) {
		if len(p) < 20 {
			return nil, errors.New("flstore: short TailWait request")
		}
		rangeIdx := int(int32(binary.LittleEndian.Uint32(p)))
		cursor := binary.LittleEndian.Uint64(p[4:])
		maxWait := time.Duration(int64(binary.LittleEndian.Uint64(p[12:])))
		return u64Response(m.TailWait(rangeIdx, cursor, maxWait))
	})
}

// handleRecords registers a traced handler for a request made of a
// fixed-size header followed by a record batch; fn receives the header and
// the records and returns the response payload. The batch decodes with
// DecodeRecordsShared: the request payload is borrowed (it aliases the
// connection's read scratch), and the arena decode materializes retainable
// records in O(1) allocations per batch. The RPC envelope's trace context
// is restamped onto the decoded records (the codec doesn't carry it), so
// the maintainer's hops join the caller's trace; untraced requests reach
// the same handler with the zero context.
func handleRecords(srv *rpc.Server, msgType uint8, hdr int, name string, fn func(header []byte, recs []*core.Record) ([]byte, error)) {
	srv.HandleTraced(msgType, func(tc *trace.Ctx, p []byte) ([]byte, error) {
		if len(p) < hdr {
			return nil, errors.New("flstore: short " + name + " request")
		}
		recs, _, err := core.DecodeRecordsShared(p[hdr:])
		if err != nil {
			return nil, err
		}
		stampRecords(recs, tc)
		return fn(p[:hdr], recs)
	})
}

// lidsResponse, u64Response and recordsResponse encode a handler's result
// (or pass its error through) for the three common response shapes.
func lidsResponse(lids []uint64, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return appendLIds(nil, lids), nil
}

func u64Response(v uint64, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint64(nil, v), nil
}

func recordsResponse(recs []*core.Record, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return core.AppendRecords(make([]byte, 0, core.EncodedSizeRecords(recs)), recs), nil
}

// ServeIndexer registers RPC handlers exposing ix on srv.
func ServeIndexer(srv *rpc.Server, ix IndexerAPI) {
	srv.Handle(msgPost, func(p []byte) ([]byte, error) {
		ps, err := decodePostings(p)
		if err != nil {
			return nil, err
		}
		return nil, ix.Post(ps)
	})
	srv.Handle(msgLookup, func(p []byte) ([]byte, error) {
		q, err := decodeLookup(p)
		if err != nil {
			return nil, err
		}
		lids, err := ix.Lookup(q)
		if err != nil {
			return nil, err
		}
		return appendLIds(nil, lids), nil
	})
}

// ServeController registers RPC handlers exposing c on srv.
func ServeController(srv *rpc.Server, c ControllerAPI) {
	srv.Handle(msgGetConfig, func(p []byte) ([]byte, error) {
		cfg, err := c.GetConfig()
		if err != nil {
			return nil, err
		}
		return appendConfig(nil, cfg), nil
	})
}

// ServeStats registers the msgStats handler on srv: a JSON-encoded snapshot
// of every series in reg. The controller exposes it so ops tooling (logctl
// stats) can read a node set's metrics over the same RPC substrate the data
// path uses, without requiring the HTTP exposition endpoint.
func ServeStats(srv *rpc.Server, reg *metrics.Registry) {
	srv.Handle(msgStats, func(p []byte) ([]byte, error) {
		return json.Marshal(reg)
	})
}

// ServeReplicas registers the msgReplicas handler on srv: a JSON-encoded
// replica.ClusterStatus assembled by fn at request time. The controller
// exposes it so `logctl replicas` can render per-group membership, health,
// and catch-up lag.
func ServeReplicas(srv *rpc.Server, fn func() (*replica.ClusterStatus, error)) {
	srv.Handle(msgReplicas, func(p []byte) ([]byte, error) {
		st, err := fn()
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	})
}

func appendLookup(dst []byte, q LookupQuery) []byte {
	dst = wire.AppendString(dst, q.Key)
	dst = append(dst, byte(q.Cmp))
	dst = wire.AppendString(dst, q.Value)
	dst = binary.LittleEndian.AppendUint64(dst, q.MaxLIdExclusive)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Limit))
	var mr byte
	if q.MostRecent {
		mr = 1
	}
	return append(dst, mr)
}

func decodeLookup(buf []byte) (LookupQuery, error) {
	var q LookupQuery
	key, off, err := wire.DecodeString(buf)
	if err != nil {
		return q, err
	}
	q.Key = key
	if len(buf) < off+1 {
		return q, errors.New("flstore: short lookup cmp")
	}
	q.Cmp = core.CmpOp(buf[off])
	off++
	val, used, err := wire.DecodeString(buf[off:])
	if err != nil {
		return q, err
	}
	q.Value = val
	off += used
	if len(buf) < off+13 {
		return q, errors.New("flstore: short lookup tail")
	}
	q.MaxLIdExclusive = binary.LittleEndian.Uint64(buf[off:])
	q.Limit = int(binary.LittleEndian.Uint32(buf[off+8:]))
	q.MostRecent = buf[off+12] == 1
	return q, nil
}

// --- client adapters ---

// mapRemoteError restores the identity of well-known sentinel errors that
// crossed the wire as strings, so call sites can use errors.Is uniformly
// whether the API is local or remote. Overload rejections are rebuilt as
// typed OverloadErrors carrying the retry-after hint the rpc layer decoded
// from the message suffix.
func mapRemoteError(err error) error {
	if err == nil || !rpc.IsRemote(err) {
		return err
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, core.ErrNoSuchRecord.Error()):
		return fmt.Errorf("%w (remote)", core.ErrNoSuchRecord)
	case strings.Contains(msg, core.ErrPastHead.Error()):
		return fmt.Errorf("%w: %s", core.ErrPastHead, msg)
	case strings.Contains(msg, ErrOverloaded.Error()):
		return &OverloadError{RetryAfter: RetryAfter(err)}
	case strings.Contains(msg, storage.ErrDuplicate.Error()):
		return fmt.Errorf("%w: %s", storage.ErrDuplicate, msg)
	case strings.Contains(msg, ErrWrongMaintainer.Error()):
		return fmt.Errorf("%w: %s", ErrWrongMaintainer, msg)
	case strings.Contains(msg, ErrNotReplica.Error()):
		return fmt.Errorf("%w: %s", ErrNotReplica, msg)
	case strings.Contains(msg, ErrOrderBacklog.Error()):
		return fmt.Errorf("%w (remote)", ErrOrderBacklog)
	case strings.Contains(msg, ErrEpochSealed.Error()):
		// The boundary rides the error string ("new epoch starts at LId
		// %d") so the remote client recovers it without a round trip; an
		// unparsable message still maps to the sentinel.
		var first uint64
		if i := strings.Index(msg, "new epoch starts at LId "); i >= 0 {
			fmt.Sscanf(msg[i:], "new epoch starts at LId %d", &first)
		}
		return &EpochSealedError{FirstLId: first}
	case strings.Contains(msg, ErrReadBlocked.Error()):
		hint := RetryAfter(err)
		if hint <= 0 {
			hint = readBlockHint
		}
		return &ReadBlockedError{RetryAfter: hint}
	}
	return err
}

// maintainerClient implements MaintainerAPI over an rpc.Client.
type maintainerClient struct{ c rpc.Client }

// NewMaintainerClient wraps an RPC client as a MaintainerAPI.
func NewMaintainerClient(c rpc.Client) MaintainerAPI { return &maintainerClient{c: c} }

// callWithRecords sends a record batch behind the fixed header already in
// the pooled request buffer req, which it returns to the pool. The payload
// is borrowed only for the call's duration. The batch's trace context (if
// any) rides the traced envelope — CallTraced degrades to a plain Call for
// untraced batches.
func (mc *maintainerClient) callWithRecords(msgType uint8, req *[]byte, recs []*core.Record) ([]byte, error) {
	tc := batchTrace(recs)
	*req = core.AppendRecords(*req, recs)
	resp, err := rpc.CallTraced(mc.c, &tc, msgType, *req)
	wire.PutBuf(req)
	return resp, mapRemoteError(err)
}

// callAssigning is callWithRecords for position-assigning appends: it
// decodes the assigned LIds and, mirroring the in-process behaviour,
// stamps them onto the caller's records.
func (mc *maintainerClient) callAssigning(msgType uint8, req *[]byte, recs []*core.Record) ([]uint64, error) {
	resp, err := mc.callWithRecords(msgType, req, recs)
	if err != nil {
		return nil, err
	}
	lids, _, err := decodeLIds(resp)
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		if i < len(lids) {
			r.LId = lids[i]
		}
	}
	return lids, nil
}

// callU64 sends req and decodes a one-word response; name labels the
// short-response error.
func (mc *maintainerClient) callU64(msgType uint8, req []byte, name string) (uint64, error) {
	resp, err := mc.c.Call(msgType, req)
	if err != nil {
		return 0, mapRemoteError(err)
	}
	if len(resp) < 8 {
		return 0, errors.New("flstore: short " + name + " response")
	}
	return binary.LittleEndian.Uint64(resp), nil
}

// callForRecords sends req and arena-decodes a record-batch response.
func (mc *maintainerClient) callForRecords(msgType uint8, req []byte) ([]*core.Record, error) {
	resp, err := mc.c.Call(msgType, req)
	if err != nil {
		return nil, mapRemoteError(err)
	}
	recs, _, err := core.DecodeRecordsShared(resp)
	return recs, err
}

func (mc *maintainerClient) Append(recs []*core.Record) ([]uint64, error) {
	return mc.callAssigning(msgAppend, wire.GetBuf(), recs)
}

func (mc *maintainerClient) AppendAssigned(recs []*core.Record) error {
	_, err := mc.callWithRecords(msgAppendAssigned, wire.GetBuf(), recs)
	return err
}

func (mc *maintainerClient) AppendAfter(minLId uint64, recs []*core.Record) ([]uint64, error) {
	req := wire.GetBuf()
	*req = binary.LittleEndian.AppendUint64(*req, minLId)
	lids, err := mc.callAssigning(msgAppendAfter, req, recs)
	if len(lids) == 0 {
		return nil, err
	}
	return lids, err
}

func (mc *maintainerClient) AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	req := wire.GetBuf()
	*req = binary.LittleEndian.AppendUint32(*req, uint32(rangeIdx))
	return mc.callAssigning(msgAppendFor, req, recs)
}

func (mc *maintainerClient) ReplicaAppend(recs []*core.Record) error {
	_, err := mc.callWithRecords(msgReplicaAppend, wire.GetBuf(), recs)
	return err
}

func (mc *maintainerClient) Read(lid uint64) (*core.Record, error) {
	resp, err := mc.c.Call(msgRead, binary.LittleEndian.AppendUint64(nil, lid))
	if err != nil {
		return nil, mapRemoteError(err)
	}
	rec, _, err := core.DecodeRecord(resp)
	return rec, err
}

func (mc *maintainerClient) Scan(rule core.Rule) ([]*core.Record, error) {
	return mc.callForRecords(msgScan, appendRule(nil, rule))
}

func (mc *maintainerClient) Head() (uint64, error) {
	return mc.callU64(msgHead, nil, "Head")
}

func (mc *maintainerClient) NextUnfilled() (uint64, error) {
	return mc.callU64(msgNextUnfilled, nil, "NextUnfilled")
}

func (mc *maintainerClient) Gossip(from int, next uint64) (uint64, error) {
	req := binary.LittleEndian.AppendUint32(nil, uint32(from))
	return mc.callU64(msgGossip, binary.LittleEndian.AppendUint64(req, next), "Gossip")
}

func (mc *maintainerClient) RangeFrontier(rangeIdx int) (uint64, error) {
	req := wire.GetBuf()
	*req = binary.LittleEndian.AppendUint32(*req, uint32(rangeIdx))
	f, err := mc.callU64(msgRangeFrontier, *req, "RangeFrontier")
	wire.PutBuf(req)
	return f, err
}

func (mc *maintainerClient) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	req := binary.LittleEndian.AppendUint32(nil, uint32(rangeIdx))
	req = binary.LittleEndian.AppendUint64(req, fromLId)
	req = binary.LittleEndian.AppendUint32(req, uint32(limit))
	return mc.callForRecords(msgPullRange, req)
}

func (mc *maintainerClient) ReadRange(q RangeQuery) (RangeResult, error) {
	req := wire.GetBuf()
	*req = binary.LittleEndian.AppendUint64(*req, q.Lo)
	*req = binary.LittleEndian.AppendUint64(*req, q.Hi)
	*req = binary.LittleEndian.AppendUint32(*req, uint32(int32(q.Range)))
	*req = binary.LittleEndian.AppendUint32(*req, uint32(q.MaxRecords))
	*req = binary.LittleEndian.AppendUint32(*req, uint32(q.MaxBytes))
	tc := q.Trace
	resp, err := rpc.CallTraced(mc.c, &tc, msgReadRange, *req)
	wire.PutBuf(req)
	if err != nil {
		return RangeResult{}, mapRemoteError(err)
	}
	return decodeRangeResult(resp)
}

func (mc *maintainerClient) MultiRead(lids []uint64) ([]*core.Record, error) {
	req := wire.GetBuf()
	*req = appendLIds(*req, lids)
	recs, err := mc.callForRecords(msgMultiRead, *req)
	wire.PutBuf(req)
	return recs, err
}

func (mc *maintainerClient) TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error) {
	req := make([]byte, 0, 20)
	req = binary.LittleEndian.AppendUint32(req, uint32(int32(rangeIdx)))
	req = binary.LittleEndian.AppendUint64(req, cursor)
	req = binary.LittleEndian.AppendUint64(req, uint64(int64(maxWait)))
	return mc.callU64(msgTailWait, req, "TailWait")
}

func (mc *maintainerClient) Invalidate(rangeIdx int, upTo uint64) error {
	// The invalidation frame rides ahead of every fan-out payload, so it
	// shares the append hot path's allocation discipline: two fixed words
	// through the pooled-buffer fast path, no response body.
	_, err := rpc.CallU64s(mc.c, msgInvalidate, uint64(rangeIdx), upTo)
	return mapRemoteError(err)
}

func (mc *maintainerClient) ValidityWatermark(rangeIdx int) (uint64, uint64, error) {
	resp, err := rpc.CallU64s(mc.c, msgWatermark, uint64(rangeIdx))
	if err != nil {
		return 0, 0, mapRemoteError(err)
	}
	if len(resp) < 16 {
		return 0, 0, errors.New("flstore: short Watermark response")
	}
	return binary.LittleEndian.Uint64(resp), binary.LittleEndian.Uint64(resp[8:]), nil
}

func (mc *maintainerClient) GossipVec(vec []uint64) ([]uint64, error) {
	resp, err := mc.c.Call(msgGossipVec, appendLIds(nil, vec))
	if err != nil {
		return nil, mapRemoteError(err)
	}
	vec, _, err = decodeLIds(resp)
	return vec, err
}

func (mc *maintainerClient) GossipVecs(next, dur []uint64) ([]uint64, []uint64, error) {
	resp, err := mc.c.Call(msgGossipVecs, appendLIds(appendLIds(nil, next), dur))
	if err != nil {
		return nil, nil, mapRemoteError(err)
	}
	myNext, n, err := decodeLIds(resp)
	if err != nil {
		return nil, nil, err
	}
	myDur, _, err := decodeLIds(resp[n:])
	if err != nil {
		return nil, nil, err
	}
	return myNext, myDur, nil
}

// indexerClient implements IndexerAPI over an rpc.Client.
type indexerClient struct{ c rpc.Client }

// NewIndexerClient wraps an RPC client as an IndexerAPI.
func NewIndexerClient(c rpc.Client) IndexerAPI { return &indexerClient{c: c} }

func (ic *indexerClient) Post(entries []Posting) error {
	_, err := ic.c.Call(msgPost, appendPostings(nil, entries))
	return mapRemoteError(err)
}

func (ic *indexerClient) Lookup(q LookupQuery) ([]uint64, error) {
	resp, err := ic.c.Call(msgLookup, appendLookup(nil, q))
	if err != nil {
		return nil, mapRemoteError(err)
	}
	lids, _, err := decodeLIds(resp)
	return lids, err
}

// controllerClient implements ControllerAPI over an rpc.Client.
type controllerClient struct{ c rpc.Client }

// NewControllerClient wraps an RPC client as a ControllerAPI.
func NewControllerClient(c rpc.Client) ControllerAPI { return &controllerClient{c: c} }

func (cc *controllerClient) GetConfig() (*Config, error) {
	resp, err := cc.c.Call(msgGetConfig, nil)
	if err != nil {
		return nil, mapRemoteError(err)
	}
	return decodeConfig(resp)
}
