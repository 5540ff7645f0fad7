package blockstore

import "twopcp/internal/obs"

// InstrumentedStore wraps a Store with telemetry: every operation feeds
// the observer's metrics registry (monotonic raw counters and byte-size
// histograms, unaffected by ResetStats on the wrapped store) and every Put
// emits a blockstore.put trace event with its byte count.
//
// Trace determinism: Gets are counted but not traced. Raw Get counts vary
// with prefetch depth (the asynchronous pipeline issues extra reads); the
// buffer's own deterministic buffer.fetch events carry the read
// information instead. Every Put is the consequence of a deterministic
// decision (unit seeding, buffer eviction, final flush), so the put
// events' multiset is invariant across concurrency settings.
type InstrumentedStore struct {
	Store // the wrapped store; Stats, ResetStats and Close are its own
	obs   *obs.Observer

	reads, writes traffic
}

// traffic is one direction's metric handles. With metrics disabled all
// three are nil, which the handles take as "off".
type traffic struct {
	ops, bytes *obs.Counter
	sizes      *obs.Histogram
}

func (t traffic) observe(n int64) {
	t.ops.Inc()
	t.bytes.Add(n)
	t.sizes.Observe(float64(n))
}

// Instrument wraps inner with the observer. An observer with only some of
// its sinks set is valid; the ones that are off cost a nil check each.
func Instrument(inner Store, ob *obs.Observer) *InstrumentedStore {
	return &InstrumentedStore{
		Store:  inner,
		obs:    ob,
		reads:  traffic{ob.Counter("blockstore.reads"), ob.Counter("blockstore.bytes_read"), ob.Histogram("blockstore.get_bytes")},
		writes: traffic{ob.Counter("blockstore.writes"), ob.Counter("blockstore.bytes_written"), ob.Histogram("blockstore.put_bytes")},
	}
}

// Put implements Store.
func (s *InstrumentedStore) Put(u *Unit) error {
	if err := s.Store.Put(u); err != nil {
		return err
	}
	n := u.Bytes()
	s.writes.observe(n)
	if s.obs.Tracing() {
		s.obs.Emit("blockstore.put",
			obs.Int("mode", u.Mode), obs.Int("part", u.Part), obs.I64("bytes", n))
	}
	return nil
}

// Get implements Store.
func (s *InstrumentedStore) Get(mode, part int) (*Unit, error) {
	u, err := s.Store.Get(mode, part)
	if err != nil {
		return nil, err
	}
	s.reads.observe(u.Bytes())
	return u, nil
}
