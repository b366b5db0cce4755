package main

import "toplists/internal/traffic"

// timedSink forwards every call to one of the study's traffic sinks,
// recording its day-boundary calls as spans and counting the events it
// sees. The engine calls a sink from one goroutine at a time.
type timedSink struct {
	inner  traffic.Sink
	rec    *recorder
	events int64

	beginSpan, endSpan, mergeSpan string
}

// BeginDay implements traffic.Sink.
func (s *timedSink) BeginDay(day int, weekend bool) {
	end := s.rec.span(s.beginSpan)
	s.inner.BeginDay(day, weekend)
	end()
}

// OnPageLoad implements traffic.Sink.
func (s *timedSink) OnPageLoad(pl *traffic.PageLoad) {
	s.events++
	s.inner.OnPageLoad(pl)
}

// OnBotBatch implements traffic.Sink.
func (s *timedSink) OnBotBatch(bb *traffic.BotBatch) {
	s.events++
	s.inner.OnBotBatch(bb)
}

// OnDNSQuery implements traffic.Sink.
func (s *timedSink) OnDNSQuery(q *traffic.DNSQuery) {
	s.events++
	s.inner.OnDNSQuery(q)
}

// EndDay implements traffic.Sink.
func (s *timedSink) EndDay(day int) {
	end := s.rec.span(s.endSpan)
	s.inner.EndDay(day)
	end()
}

// timedShardedSink is a timedSink over a traffic.ShardedSink. It stays a
// ShardedSink, so in sketch mode the engine still folds events into
// per-shard states instead of replaying them.
type timedShardedSink struct {
	*timedSink
	sharded traffic.ShardedSink
}

// NewShardState implements traffic.ShardedSink.
func (s *timedShardedSink) NewShardState() traffic.ShardState {
	return &countedState{inner: s.sharded.NewShardState()}
}

// MergeShard implements traffic.ShardedSink.
func (s *timedShardedSink) MergeShard(st traffic.ShardState) {
	cs := st.(*countedState)
	s.events += cs.events
	end := s.rec.span(s.mergeSpan)
	s.sharded.MergeShard(cs.inner)
	end()
}

// countedState counts the events one logical shard folds into a sink's
// per-shard state; the engine resets it after each merge.
type countedState struct {
	inner  traffic.ShardState
	events int64
}

// OnPageLoad implements traffic.ShardState.
func (c *countedState) OnPageLoad(pl *traffic.PageLoad) {
	c.events++
	c.inner.OnPageLoad(pl)
}

// OnDNSQuery implements traffic.ShardState.
func (c *countedState) OnDNSQuery(q *traffic.DNSQuery) {
	c.events++
	c.inner.OnDNSQuery(q)
}

// Reset implements traffic.ShardState.
func (c *countedState) Reset() {
	c.events = 0
	c.inner.Reset()
}

// timeSink wraps sink, named name in metrics, in a forwarding timer that
// keeps it a ShardedSink when it is one.
func timeSink(name string, sink traffic.Sink, rec *recorder) (traffic.Sink, *timedSink) {
	ts := &timedSink{
		inner:     sink,
		rec:       rec,
		beginSpan: "sink." + name + ".begin_day",
		endSpan:   "sink." + name + ".end_day",
		mergeSpan: "sink." + name + ".merge",
	}
	if ss, ok := sink.(traffic.ShardedSink); ok {
		return &timedShardedSink{timedSink: ts, sharded: ss}, ts
	}
	return ts, ts
}
