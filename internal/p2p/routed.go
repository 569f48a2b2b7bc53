package p2p

import (
	"context"
	"slices"
	"sync"
	"time"

	"gsn/internal/sqlengine"
)

// routedPollWait is how long one results poll may wait on the owner.
const routedPollWait = 25 * time.Second

// routedReg is one routed registration on the coordinator side.
type routedReg struct {
	sensor, sql string
	sampling    float64

	// id is the owner's session, empty while the session is gone and
	// the registration waits to register again; the delivery loop
	// rewrites it under the loop's mu. after, the last revision
	// delivered, and retry/retryAt, this registration's own backoff
	// between failed re-registrations, are the loop's alone.
	id      string
	after   uint64
	retry   time.Duration
	retryAt time.Time

	// mu serialises cb with stop: once stop has set stopped, no
	// callback starts, and the one running has returned.
	mu      sync.Mutex
	stopped bool
	cb      func(*sqlengine.Relation)
}

func (r *routedReg) deliver(rel *sqlengine.Relation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.stopped {
		r.cb(rel)
	}
}

// ownerLoop delivers the results of every routed registration this node
// holds on one owner through one long poll at a time. Adding or
// removing a registration interrupts the poll in flight so the next one
// lists the new set; the loop exits when the last registration stops.
type ownerLoop struct {
	f    *Federation
	cl   *Client
	done chan struct{}

	mu     sync.Mutex
	regs   []*routedReg
	cancel context.CancelFunc // interrupts the current poll or backoff
	closed bool               // the last registration stopped
}

// RegisterRemote implements core.Cluster: register the continuous
// query on the owning peer and deliver its result revisions into cb
// from the one results loop this node runs for that owner, so the
// callbacks of every registration on one owner run in turn on that
// loop's goroutine. A session the owner reports gone (peer restart,
// idle sweep after a long partition) is registered again, so the
// subscription survives the same failures the stream protocol does.
// stop returns once no callback of this registration can run any more.
func (f *Federation) RegisterRemote(owner, sensor, sql string, sampling float64, cb func(*sqlengine.Relation)) (func(), error) {
	cl := f.peerClient(owner)
	id, err := cl.RegisterContinuous(sensor, sql, sampling)
	if err != nil {
		return nil, err
	}
	reg := &routedReg{sensor: sensor, sql: sql, sampling: sampling, id: id, cb: cb}
	f.mu.Lock()
	loop := f.routed[cl.Base]
	start := loop == nil
	if start {
		loop = &ownerLoop{f: f, cl: cl, done: make(chan struct{})}
		f.routed[cl.Base] = loop
	}
	loop.mu.Lock()
	loop.regs = append(loop.regs, reg)
	loop.interruptLocked()
	loop.mu.Unlock()
	if start {
		go loop.run()
	}
	f.mu.Unlock()
	return func() { f.stopRouted(loop, reg) }, nil
}

// stopRouted retires one registration: no callback after it returns,
// its loop re-polls without it (or exits, with the last one), and the
// owner's session, if it still has one, is torn down.
func (f *Federation) stopRouted(loop *ownerLoop, reg *routedReg) {
	reg.mu.Lock()
	already := reg.stopped
	reg.stopped = true
	reg.mu.Unlock()
	if already {
		return
	}
	f.mu.Lock()
	loop.mu.Lock()
	loop.regs = slices.DeleteFunc(loop.regs, func(r *routedReg) bool { return r == reg })
	id := reg.id
	last := len(loop.regs) == 0
	if last {
		loop.closed = true
		delete(f.routed, loop.cl.Base)
	}
	loop.interruptLocked()
	loop.mu.Unlock()
	f.mu.Unlock()
	if last {
		<-loop.done
	}
	if id != "" {
		_ = loop.cl.UnregisterContinuous(id)
	}
}

func (l *ownerLoop) interruptLocked() {
	if l.cancel != nil {
		l.cancel()
	}
}

// arm snapshots the registrations for the next poll under a context
// an interrupt cancels; a nil context means the loop must exit.
func (l *ownerLoop) arm() (context.Context, context.CancelFunc, []*routedReg) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	return ctx, cancel, slices.Clone(l.regs)
}

func (l *ownerLoop) run() {
	defer close(l.done)
	var backoff time.Duration
	for {
		ctx, cancel, regs := l.arm()
		if ctx == nil {
			return
		}
		if backoff > 0 {
			pause(ctx, backoff)
		}
		err := l.poll(ctx, regs)
		interrupted := ctx.Err() != nil
		cancel()
		switch {
		case interrupted:
			// The set changed or the loop is stopping: not a failure.
		case err != nil:
			backoff = min(max(2*backoff, 100*time.Millisecond), 5*time.Second)
		default:
			backoff = 0
		}
	}
}

// pause waits d, or less if ctx ends first.
func pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// poll registers every gone registration again whose backoff allows,
// runs one results poll for those holding a session, hands each fresh
// revision to its registration's callback and marks the sessions the
// owner reports gone. A registration that fails to register again sits
// out the polls until its own next attempt, which ends the poll's wait,
// so it holds up no other. Only the loop writes a registration's id
// and cursor, so it reads them without the lock.
func (l *ownerLoop) poll(ctx context.Context, regs []*routedReg) error {
	if ctx.Err() != nil {
		return nil
	}
	wait := routedPollWait
	var polled []*routedReg
	var cursors []ResultsCursor
	for _, reg := range regs {
		if reg.id == "" && !l.reregister(reg) {
			wait = min(wait, time.Until(reg.retryAt))
			continue
		}
		polled = append(polled, reg)
		cursors = append(cursors, ResultsCursor{ID: reg.id, After: reg.after})
	}
	if ctx.Err() != nil {
		return nil // a registration stopped while registering again
	}
	if len(cursors) == 0 {
		pause(ctx, wait)
		return nil
	}
	pages, n, err := l.cl.PollResults(ctx, cursors, max(wait, 0))
	l.f.routedBytes.Add(uint64(n))
	if err != nil {
		return err
	}
	for _, p := range pages {
		i := slices.IndexFunc(cursors, func(c ResultsCursor) bool { return c.ID == p.ID })
		if i < 0 {
			continue
		}
		reg := polled[i]
		switch {
		case p.Gone:
			l.mu.Lock()
			reg.id = ""
			l.mu.Unlock()
		case p.Rev > reg.after:
			reg.after = p.Rev
			reg.deliver(p.Result)
		}
	}
	return nil
}

// reregister opens a fresh session for a registration whose session is
// gone, replayed from its first revision, once its backoff allows. It
// reports whether reg now holds a session. A registration stopped
// meanwhile has its new session torn down again.
func (l *ownerLoop) reregister(reg *routedReg) bool {
	if time.Now().Before(reg.retryAt) {
		return false
	}
	id, err := l.cl.RegisterContinuous(reg.sensor, reg.sql, reg.sampling)
	if err != nil {
		reg.retry = min(max(2*reg.retry, 100*time.Millisecond), 5*time.Second)
		reg.retryAt = time.Now().Add(reg.retry)
		return false
	}
	reg.retry, reg.retryAt = 0, time.Time{}
	l.mu.Lock()
	live := slices.Contains(l.regs, reg)
	if live {
		reg.id, reg.after = id, 0
	}
	l.mu.Unlock()
	if !live {
		_ = l.cl.UnregisterContinuous(id)
	}
	return live
}
