//! The pool's ownership protocol as pure state.
//!
//! Each session's deque (its home), which sessions are runnable, who has
//! one checked out, the epoch-job queue, parked workers and their pending
//! rings, helped turns in flight and shutdown live in one [`Protocol`]
//! behind the pool's one lock. Every transition is a method that never
//! blocks, reads a clock or touches a channel, and returns what the caller
//! must do once the lock is released. `pool.rs` drives it, and the explorer
//! in `protocol/explore.rs` drives the same methods through every
//! interleaving. A session becomes runnable only through
//! [`Protocol::publish`] and [`Protocol::give_back`].

use std::collections::{BTreeMap, VecDeque};

/// A session's pool-wide id.
type Sid = u64;

/// Who returns a checked-out session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum By {
    Worker(usize),
    Helper,
}

/// Which parked workers the caller must wake after releasing the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub(crate) enum Notify {
    Nobody,
    One(usize),
    All,
}

/// A session taken out of its deque: the taker is its only pumper until
/// [`Protocol::give_back`].
#[derive(Debug)]
pub(crate) struct Checkout<S> {
    pub sid: Sid,
    pub session: S,
    /// The deque it was taken from.
    pub from: usize,
    /// For a worker's checkout, the workers parked at that moment: the
    /// input of the `PipelineMode::Auto` entry decision. `None` for a
    /// helped turn, which never takes that decision.
    pub gate: Option<usize>,
}

/// A worker's next move.
#[derive(Debug)]
pub(crate) enum Step<S, J> {
    Job(J),
    Pump(Checkout<S>),
    /// Nothing to do: spin or [`Protocol::park`].
    Idle,
    /// Shut down, nothing resident, queued or helped: leave.
    Exit,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Slot<S> {
    home: usize,
    runnable: bool,
    /// `None` while checked out.
    session: Option<S>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Worker {
    /// Resident sessions, front first in rotation order.
    deque: VecDeque<Sid>,
    parked: bool,
    /// A pending ring: wakes a parked worker, and makes an awake one look
    /// again instead of parking.
    rung: bool,
    /// Pumping a checked-out session or running a job.
    busy: bool,
    /// The last step was a job: the next prefers a session, so a deep job
    /// queue cannot starve resident traffic.
    after_job: bool,
    exited: bool,
}

/// The ownership state of a pool of `S` sessions and `J` epoch jobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Protocol<S, J> {
    workers: Vec<Worker>,
    slots: BTreeMap<Sid, Slot<S>>,
    jobs: VecDeque<J>,
    helps: usize,
    shutdown: bool,
    next_home: usize,
}

impl<S, J> Protocol<S, J> {
    pub(crate) fn new(workers: usize) -> Self {
        Protocol {
            workers: vec![Worker::default(); workers],
            slots: BTreeMap::new(),
            jobs: VecDeque::new(),
            helps: 0,
            shutdown: false,
            next_home: 0,
        }
    }

    /// Places a new session on the next deque, round-robin (stealing
    /// corrects any imbalance).
    pub(crate) fn open(&mut self, sid: Sid, session: S) {
        let home = self.next_home;
        self.next_home = (home + 1) % self.workers.len();
        self.workers[home].deque.push_back(sid);
        self.slots.insert(sid, Slot { home, runnable: false, session: Some(session) });
    }

    /// The session has something new (a batch, its close, an epoch
    /// result). A resident session's home is rung; a checked-out one is
    /// seen runnable when it is given back. Finalized sessions are gone.
    pub(crate) fn publish(&mut self, sid: Sid) -> Notify {
        let Some(slot) = self.slots.get_mut(&sid) else { return Notify::Nobody };
        let was = std::mem::replace(&mut slot.runnable, true);
        match (slot.session.is_some(), slot.home) {
            (true, home) if !was => self.alert(Some(home)),
            _ => Notify::Nobody,
        }
    }

    /// Queues an epoch job for any worker.
    pub(crate) fn submit(&mut self, job: J) -> Notify {
        self.jobs.push_back(job);
        self.alert(None)
    }

    /// Worker `w`'s next move, in order: a job (unless its last move was
    /// one), the front-most runnable session of its own deque (any
    /// resident one once shut down, to finalize it), the most recently
    /// queued runnable session of another deque (not once shut down), a
    /// job, exit, idle. A move that leaves runnable work behind alerts
    /// another worker.
    pub(crate) fn next(&mut self, w: usize) -> (Step<S, J>, Notify) {
        let shutdown = self.shutdown;
        let me = &mut self.workers[w];
        me.busy = false;
        if !std::mem::take(&mut me.after_job) {
            if let Some(job) = self.take_job(w) {
                return job;
            }
        }
        let slots = &self.slots;
        let own = self.workers[w].deque.iter().position(|sid| shutdown || slots[sid].runnable);
        let n = self.workers.len();
        let found = own.map(|pos| (w, pos)).or_else(|| {
            (1..n).filter(|_| !shutdown).map(|off| (w + off) % n).find_map(|v| {
                let pos = self.workers[v].deque.iter().rposition(|sid| slots[sid].runnable)?;
                Some((v, pos))
            })
        });
        if let Some((v, pos)) = found {
            let checkout = self.take(v, pos, Some(w));
            self.workers[w].busy = true;
            return (Step::Pump(checkout), self.alert_leftover());
        }
        if let Some(job) = self.take_job(w) {
            return job;
        }
        if shutdown && self.helps == 0 {
            self.workers[w].exited = true;
            return (Step::Exit, Notify::Nobody);
        }
        (Step::Idle, Notify::Nobody)
    }

    fn take_job(&mut self, w: usize) -> Option<(Step<S, J>, Notify)> {
        let job = self.jobs.pop_front()?;
        let me = &mut self.workers[w];
        me.busy = true;
        me.after_job = true;
        Some((Step::Job(job), self.alert_leftover()))
    }

    /// Runs a helped turn's checkout: the most recently queued runnable
    /// session of the first deque that has one, unless a worker is parked
    /// (that worker is the idle capacity the producer's publishes wake).
    pub(crate) fn help(&mut self) -> Option<Checkout<S>> {
        if self.workers.iter().any(|w| w.parked) {
            return None;
        }
        let slots = &self.slots;
        let (v, pos) =
            self.workers.iter().enumerate().find_map(|(v, w)| {
                Some((v, w.deque.iter().rposition(|sid| slots[sid].runnable)?))
            })?;
        self.helps += 1;
        Some(self.take(v, pos, None))
    }

    fn take(&mut self, v: usize, pos: usize, worker: Option<usize>) -> Checkout<S> {
        let gate = worker.map(|_| self.parked_workers());
        let sid = self.workers[v].deque.remove(pos).expect("position inside the deque");
        let slot = self.slots.get_mut(&sid).expect("a resident session has a slot");
        slot.runnable = false;
        let session = slot.session.take().expect("a resident session is not checked out");
        Checkout { sid, session, from: v, gate }
    }

    /// Returns a checked-out session. It comes back to the caller to be
    /// finalized (or dropped, after a panic) when `finished` or once the
    /// pool is shut down; otherwise it goes to the back of the returning
    /// worker's deque — a helper returns it to its home — runnable if
    /// `more` or if it was published meanwhile.
    pub(crate) fn give_back(
        &mut self,
        by: By,
        sid: Sid,
        session: S,
        finished: bool,
        more: bool,
    ) -> (Option<S>, Notify) {
        let mut notify = Notify::Nobody;
        match by {
            By::Worker(w) => self.workers[w].busy = false,
            By::Helper => {
                self.helps -= 1;
                if self.shutdown && self.helps == 0 {
                    // Terminating workers wait for the last helped turn.
                    notify = self.ring_all();
                }
            }
        }
        if finished || self.shutdown {
            self.slots.remove(&sid);
            return (Some(session), notify);
        }
        let slot = self.slots.get_mut(&sid).expect("a checked-out session has a slot");
        let home = match by {
            By::Worker(w) => w,
            By::Helper => slot.home,
        };
        slot.home = home;
        slot.session = Some(session);
        slot.runnable |= more;
        let runnable = slot.runnable;
        self.workers[home].deque.push_back(sid);
        if runnable && by == By::Helper {
            notify = self.alert(Some(home));
        }
        (None, notify)
    }

    /// Worker `w` has found nothing to do: parks it unless a ring is
    /// pending, which is consumed instead. Returns whether it parked.
    pub(crate) fn park(&mut self, w: usize) -> bool {
        let me = &mut self.workers[w];
        if std::mem::take(&mut me.rung) {
            return false;
        }
        me.parked = true;
        true
    }

    /// Whether parked worker `w` has been rung; if so it resumes.
    pub(crate) fn woken(&mut self, w: usize) -> bool {
        let me = &mut self.workers[w];
        me.parked &= !std::mem::take(&mut me.rung);
        !me.parked
    }

    pub(crate) fn parked_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.parked).count()
    }

    /// Starts shutdown: every worker finalizes its resident sessions,
    /// serves the job queue, waits out helped turns and exits.
    pub(crate) fn shutdown(&mut self) -> Notify {
        self.shutdown = true;
        self.ring_all()
    }

    /// Work appeared: a runnable session on `home`'s deque, or (`None`) a
    /// job. An idle home takes it itself; otherwise a parked worker is
    /// woken to steal it, or, with none parked, every awake worker looks
    /// again before it parks.
    fn alert(&mut self, home: Option<usize>) -> Notify {
        if let Some(h) = home.filter(|&h| !self.workers[h].busy) {
            return self.ring(h);
        }
        if let Some(x) = self.workers.iter().position(|w| w.parked && !w.rung) {
            return self.ring(x);
        }
        for w in self.workers.iter_mut().filter(|w| !w.parked) {
            w.rung = true;
        }
        Notify::Nobody
    }

    /// After a worker took a move: if runnable work is left behind a busy
    /// worker (or queued), someone else is alerted to it.
    fn alert_leftover(&mut self) -> Notify {
        let slots = &self.slots;
        let stranded =
            self.workers.iter().any(|w| w.busy && w.deque.iter().any(|sid| slots[sid].runnable));
        if stranded || !self.jobs.is_empty() {
            self.alert(None)
        } else {
            Notify::Nobody
        }
    }

    fn ring(&mut self, w: usize) -> Notify {
        let me = &mut self.workers[w];
        let was = std::mem::replace(&mut me.rung, true);
        if me.parked && !was {
            Notify::One(w)
        } else {
            Notify::Nobody
        }
    }

    fn ring_all(&mut self) -> Notify {
        for w in &mut self.workers {
            w.rung = true;
        }
        Notify::All
    }
}

#[cfg(test)]
mod explore;
