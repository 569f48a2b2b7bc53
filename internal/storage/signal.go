package storage

// Signal is a broadcast change signal, guarded by its owner's lock:
// Changed hands out a channel the next Fire closes. The channel is made
// on first request, so a signal nobody waits on costs Fire one nil
// check. After Close, Changed answers an already-closed channel.
type Signal struct {
	ch     chan struct{}
	closed bool
}

// closedSignal is what Changed answers once the signal is closed.
var closedSignal = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Changed returns a channel closed by the next Fire or Close. A waiter
// takes it before reading the state it waits on, so a change between
// the read and the wait still wakes it.
func (s *Signal) Changed() <-chan struct{} {
	if s.closed {
		return closedSignal
	}
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

// Fire wakes every waiter on Changed.
func (s *Signal) Fire() {
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// Close fires the signal for good.
func (s *Signal) Close() {
	s.Fire()
	s.closed = true
}

// Closed reports whether Close has run.
func (s *Signal) Closed() bool { return s.closed }
