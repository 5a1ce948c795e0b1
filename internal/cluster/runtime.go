// Package cluster is the message-passing substrate that stands in for MPI
// (offline substitution: no MPI implementation is practical here). Ranks
// are goroutines exchanging data through typed mailboxes and tree-modeled
// collectives, exactly as a block-row CG would over MPI.
//
// Time is virtual. Every rank owns a clock that advances by modeled costs:
//
//	compute:        flops / rate(freq)
//	point-to-point: alpha + bytes/bandwidth  (LogGP-style)
//	collectives:    ceil(log2 P) * (alpha + bytes/bandwidth)
//
// and synchronizes at collectives to the participants' maximum. This is
// the standard conservative network simulation (cf. SimGrid/SMPI) and is
// what lets the repository report time-to-solution and energy-to-solution
// without the paper's physical testbed.
//
// Power: every clock advance is recorded into a power.Meter with the
// per-core wattage implied by the core's frequency and activity. While a
// rank waits (for a message or at a collective) it is charged busy-wait
// power by default, matching MPI's polling progress engines — the paper
// relies on this to explain why plain LI only drops node power to ~0.75×.
// Recovery code switches waiting ranks to idle/sleep accounting (and
// optionally a lower frequency) through SetWaitIdle and SetFreq.
//
// Every rank is one goroutine blocking on mutex/cond pairs. Clocks,
// energy, traces and solutions are functions of virtual time and
// rank-ordered reductions only, never of host scheduling order.
package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/telemetry"
)

// Runtime couples P ranks to a platform and a meter for one parallel run.
type Runtime struct {
	p     int
	plat  *platform.Platform
	meter *power.Meter
	rec   *obs.Recorder

	coll *collectiveState
	mail *mailbox

	// abortFlag is the hot-path view of "has any rank failed": checkAbort
	// runs before every operation, so it reads one atomic instead of
	// serializing all ranks on abortMu. The mutex still orders the error.
	abortFlag atomic.Bool
	abortMu   sync.Mutex
	abortErr  error

	// exited is an atomic bitset of ranks whose function has returned. A
	// rank blocked on a collective or a receive that an exited rank can
	// no longer satisfy is deadlocked; the waiters detect this and abort
	// with a diagnostic instead of hanging the run (and the test suite)
	// forever. A bitset (vs. the former mutex-guarded []bool) keeps the
	// per-receive deadlock probe lock-free.
	exited  []atomic.Uint64
	nExited atomic.Int32

	// Cycle detection among live ranks, which the exited-rank probes
	// cannot see (see sleep): waits[r] is what rank r last slept on,
	// written under the lock of that state; blocked counts the ranks
	// asleep whose waits no state change has touched since.
	waits   []rankWait
	blocked atomic.Int32
}

// rankWait is what a blocked rank sleeps on: a message on key when mail
// is set, otherwise the completion of collective generation gen.
type rankWait struct {
	mail bool
	key  mkey
	gen  int64
}

// abortPanic is the sentinel carried by panics raised when the run has
// been aborted by another rank's failure.
type abortPanic struct{ err error }

// NewRuntime builds a runtime for p ranks.
func NewRuntime(p int, plat *platform.Platform, meter *power.Meter) *Runtime {
	if p <= 0 {
		panic(fmt.Sprintf("cluster: invalid rank count %d", p))
	}
	rt := &Runtime{p: p, plat: plat, meter: meter,
		exited: make([]atomic.Uint64, (p+63)/64),
		waits:  make([]rankWait, p)}
	// Pre-size the meter's per-core table so every clock advance takes the
	// meter's lock-free single-writer path (core id = rank).
	meter.Reserve(p)
	rt.coll = newCollectiveState(p, rt)
	rt.mail = newMailbox(rt)
	return rt
}

// markExited records that a rank's function returned and wakes every
// blocked waiter so it can re-run its deadlock checks. Each wait mutex is
// taken before its broadcast so a waiter cannot evaluate the checks and
// go to sleep across the transition.
func (rt *Runtime) markExited(rank int) {
	w := &rt.exited[rank>>6]
	bit := uint64(1) << (uint(rank) & 63)
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	rt.nExited.Add(1)
	rt.coll.mu.Lock()
	rt.release(&rt.coll.sleepers)
	rt.coll.mu.Unlock()
	rt.coll.cond.Broadcast()
	rt.mail.mu.Lock()
	rt.release(&rt.mail.sleepers)
	rt.mail.mu.Unlock()
	rt.mail.cond.Broadcast()
}

// isExited reports whether a rank's function has returned.
func (rt *Runtime) isExited(rank int) bool {
	return rt.exited[rank>>6].Load()&(uint64(1)<<(uint(rank)&63)) != 0
}

// sleepers counts the ranks asleep on one state's cond that blocked
// includes. Guarded by that state's lock.
type sleepers struct {
	n     int32
	epoch uint64 // bumped whenever release removes sleepers
}

// release removes every rank asleep on s from the blocked count, ahead of
// the broadcast that wakes them. Called under s's lock, in the critical
// section that makes the state change the broadcast announces, so
// blocked counts only ranks whose waits that change has not touched.
func (rt *Runtime) release(s *sleepers) {
	if s.n > 0 {
		rt.blocked.Add(-s.n)
		s.n = 0
		s.epoch++
	}
}

// sleep blocks the rank on cond until its wait w may be satisfied.
// Called with cond.L held, after the caller's own checks, which it
// re-runs on return. The rank records w and counts itself blocked in s;
// if that makes every live rank blocked, it unlocks cond.L to run
// detectDeadlock, and then sleeps only if it is still counted and w is
// still unsatisfied: while unlocked it may have missed the broadcast
// that satisfies it.
func (rt *Runtime) sleep(rank int, w rankWait, cond *sync.Cond, s *sleepers) {
	rt.waits[rank] = w
	s.n++
	epoch := s.epoch
	if rt.blocked.Add(1) == int32(rt.p)-rt.nExited.Load() {
		cond.L.Unlock()
		rt.detectDeadlock()
		cond.L.Lock()
		if s.epoch != epoch {
			return // released meanwhile
		}
		if rt.satisfiable(w) {
			s.n--
			rt.blocked.Add(-1)
			return
		}
	}
	cond.Wait()
	if s.epoch == epoch {
		// Woken by a broadcast whose release ran before this rank
		// counted itself in.
		s.n--
		rt.blocked.Add(-1)
	}
}

// satisfiable reports whether the recorded wait w can make progress: its
// state was aborted, the event it waits for happened, or an exited rank
// means its re-check will abort with a diagnostic. Called with the lock
// of the state w waits on held.
func (rt *Runtime) satisfiable(w rankWait) bool {
	if w.mail {
		mb := rt.mail
		return mb.dead || len(mb.queue(w.key).msgs) > 0 || rt.isExited(w.key.from)
	}
	cs := rt.coll
	return cs.dead || cs.gen != w.gen || len(cs.missing()) > 0
}

// detectDeadlock aborts the run when every live rank is blocked and none
// of their recorded waits can be satisfied: a receive or collective cycle
// among ranks that are all still alive.
func (rt *Runtime) detectDeadlock() {
	if err := rt.cycleError(); err != nil {
		rt.abort(err)
	}
}

// cycleError returns the deadlock diagnostic detectDeadlock aborts with,
// or nil. With mail.mu and coll.mu held and every live rank counted,
// each is asleep in cond.Wait, woken by a broadcast for a change it has
// already seen, or in sleep's own detection path; nothing else runs, so
// the state it reads cannot move.
func (rt *Runtime) cycleError() error {
	mb, cs := rt.mail, rt.coll
	mb.mu.Lock()
	defer mb.mu.Unlock()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	live := int32(rt.p) - rt.nExited.Load()
	if rt.blocked.Load() != live {
		return nil
	}
	for r := 0; r < rt.p; r++ {
		if !rt.isExited(r) && rt.satisfiable(rt.waits[r]) {
			return nil
		}
	}
	var waits []string
	for r := 0; r < rt.p; r++ {
		switch w := rt.waits[r]; {
		case rt.isExited(r):
		case w.mail:
			waits = append(waits, fmt.Sprintf("rank %d receiving from rank %d (tag %d)", r, w.key.from, w.key.tag))
		default:
			waits = append(waits, fmt.Sprintf("rank %d in collective %d", r, w.gen))
		}
	}
	return fmt.Errorf("cluster: deadlock: all %d live ranks blocked: %s", live, strings.Join(waits, ", "))
}

// SetRecorder attaches an observability recorder before Run: every rank's
// Comm then records spans and counters against its surface. Recording is
// pure — it reads the virtual clocks but never advances one — so runs are
// byte-identical with or without a recorder. Must be called before Run.
func (rt *Runtime) SetRecorder(rec *obs.Recorder) { rt.rec = rec }

// abort records the first failure and unblocks every waiting rank. The
// first abort of a run also lands in the process flight recorder, so a
// stall-protocol trip or deadlock detection inside a service job shows
// up in the same timeline as the request that carried it.
func (rt *Runtime) abort(err error) {
	rt.abortMu.Lock()
	first := rt.abortErr == nil
	if first {
		rt.abortErr = err
		rt.abortFlag.Store(true)
	}
	rt.abortMu.Unlock()
	if first {
		telemetry.DefaultFlight().Note("cluster-abort", "", err.Error())
	}
	rt.coll.abort()
	rt.mail.abort()
}

func (rt *Runtime) aborted() error {
	if !rt.abortFlag.Load() {
		return nil
	}
	rt.abortMu.Lock()
	defer rt.abortMu.Unlock()
	return rt.abortErr
}

// Run executes fn on every rank concurrently and waits for completion.
// The first error (or converted panic) aborts all ranks and is returned.
// MaxClock afterwards holds the final virtual time.
func Run(p int, plat *platform.Platform, meter *power.Meter, fn func(c *Comm) error) (maxClock float64, err error) {
	rt := NewRuntime(p, plat, meter)
	return rt.Run(fn)
}

// Run executes fn on every rank of this runtime.
func (rt *Runtime) Run(fn func(c *Comm) error) (maxClock float64, err error) {
	clocks := make([]float64, rt.p)
	errs := make([]error, rt.p)
	body := func(rank int) {
		c := newComm(rank, rt)
		defer func() {
			clocks[rank] = c.clock
			// A panic aborts the run before the exit is marked, so the
			// panic, not the exit it causes, is the run's first error.
			if rec := recover(); rec != nil {
				if ap, ok := rec.(abortPanic); ok {
					errs[rank] = ap.err
				} else {
					err := fmt.Errorf("cluster: rank %d panicked: %v", rank, rec)
					errs[rank] = err
					rt.abort(err)
				}
			}
			rt.markExited(rank)
		}()
		if e := fn(c); e != nil {
			errs[rank] = e
			rt.abort(e)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < rt.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(rank)
		}(r)
	}
	wg.Wait()
	for _, c := range clocks {
		if c > maxClock {
			maxClock = c
		}
	}
	if aerr := rt.aborted(); aerr != nil {
		return maxClock, aerr
	}
	for _, e := range errs {
		if e != nil {
			return maxClock, e
		}
	}
	return maxClock, nil
}
