package serve

import (
	"encoding/json"
	"fmt"
	"sync"
)

// maxStreamHistory bounds each job's event replay buffer; later events
// still reach live subscribers but are not replayed to late joiners.
// The terminal event is kept outside this bound.
const maxStreamHistory = 512

// subscriberSlack is how many live events a subscriber channel buffers
// beyond the replayed history before the stream drops events for it.
const subscriberSlack = 256

// sseEvent is one server-sent event: a name plus a JSON data payload.
type sseEvent struct {
	name string
	data []byte
}

// stream is a per-job telemetry broadcaster. Events published while the
// job runs are buffered (up to maxStreamHistory) so subscribers that
// connect late replay the full history, then receive live events until
// the stream closes. The terminal event (finish) is never lost: it is
// kept apart from the bounded history, and every subscriber channel
// reserves its last slot for it.
type stream struct {
	mu      sync.Mutex
	history []sseEvent
	final   *sseEvent // the terminal event, once finish has run
	dropped int
	subs    map[chan sseEvent]struct{}
	closed  bool
}

func newStream() *stream {
	return &stream{subs: make(map[chan sseEvent]struct{})}
}

// encodeEvent marshals v as the event's data, or an error object when
// v is not encodable.
func encodeEvent(name string, v any) sseEvent {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return sseEvent{name: name, data: data}
}

// publish marshals v and broadcasts it under the event name. Slow
// subscribers lose events rather than stalling the publisher.
func (s *stream) publish(name string, v any) {
	ev := encodeEvent(name, v)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.history) < maxStreamHistory {
		s.history = append(s.history, ev)
	} else {
		s.dropped++
	}
	// Only the holder of s.mu sends, so a channel's length can only shrink
	// between this check and the send. Leaving the last slot free keeps
	// room for the terminal event; a subscriber that is not draining
	// loses this event rather than block the publisher.
	for ch := range s.subs {
		if len(ch) < cap(ch)-1 {
			ch <- ev
		}
	}
}

// finish publishes the terminal event and closes the stream. The event
// bypasses the bounded history and fills the slot every subscriber
// channel reserves for it, so neither a full history nor a stalled
// subscriber can lose it; late subscribers replay it after the history.
func (s *stream) finish(name string, v any) {
	ev := encodeEvent(name, v)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.final = &ev
	for ch := range s.subs {
		ch <- ev // the reserved slot: never blocks
	}
	s.closeLocked()
}

// close ends the stream without a terminal event; every subscriber
// channel is closed after its pending events drain. Publishing after
// close is a no-op.
func (s *stream) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closeLocked()
	}
}

func (s *stream) closeLocked() {
	s.closed = true
	for ch := range s.subs {
		close(ch)
	}
	s.subs = nil
}

// subscribe returns a channel primed with the replay history followed
// by live events and the terminal event; the channel is closed when the
// stream closes. The returned cancel func detaches the subscriber
// (idempotent, safe after close).
func (s *stream) subscribe() (<-chan sseEvent, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan sseEvent, len(s.history)+subscriberSlack+1) // +1: the terminal event's slot
	for _, ev := range s.history {
		ch <- ev
	}
	if s.closed {
		if s.final != nil {
			ch <- *s.final
		}
		close(ch)
		return ch, func() {}
	}
	s.subs[ch] = struct{}{}
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.subs != nil {
			delete(s.subs, ch)
		}
	}
	return ch, cancel
}
