//! A bounded, exhaustive explorer of the ownership protocol.
//!
//! Every interleaving point of the pool is one critical section on the
//! protocol lock, so the pool's behaviour is the set of interleavings of
//! those calls. The explorer drives the real [`Protocol`] over a model
//! session — a log channel of `cap` batches, a close flag, at most one
//! epoch job in flight — with the same call sequences as `pool.rs`:
//! workers (`next`, pump, `submit`, `give_back`, finalize, `park` and the
//! condition-variable wait, epoch jobs and their `publish`), producers
//! (publish, a refused publish that helps and then blocks, close, and a
//! `finish` that helps while its report is not ready) and one shutdown.
//! It walks every order of those actors depth-first, merging states by
//! hash, and checks in every state:
//!
//! * safety — one pumper per session; only a worker's checkout carries the
//!   `Auto` gate input; a worker exits only with no helped turn in flight
//!   and nothing resident or queued; a helper giving a session back after
//!   shutdown gets it back to finalize; `help` declines while a worker is
//!   parked;
//! * liveness — a worker parked with no ring pending leaves no runnable
//!   session on its own deque or behind a busy worker, and no queued job;
//!   and a state where no actor can move has every `finish` returned, and,
//!   after shutdown, every worker gone.
//!
//! A violation panics with the actor sequence that reaches it, which
//! [`replay`] runs again step by step.

use super::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Hand-driven checkouts for the pool's rig tests.
impl<S, J> Protocol<S, J> {
    /// Checks `sid` out of its deque by hand, as a worker would, or as a
    /// helper (counted as a helped turn in flight).
    pub(crate) fn checkout(&mut self, sid: Sid, helper: bool) -> Option<Checkout<S>> {
        let home = self.slots.get(&sid)?.home;
        let pos = self.workers[home].deque.iter().position(|s| *s == sid)?;
        self.helps += usize::from(helper);
        Some(self.take(home, pos, (!helper).then_some(home)))
    }

    /// Puts a hand-checked-out session back on its home deque, runnable.
    pub(crate) fn restore(&mut self, sid: Sid, session: S) -> Notify {
        let slot = self.slots.get_mut(&sid).expect("a checked-out session has a slot");
        slot.session = Some(session);
        slot.runnable = false;
        self.workers[slot.home].deque.push_back(sid);
        self.publish(sid)
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown
    }

    /// Sessions resident on any deque.
    pub(crate) fn resident(&self) -> usize {
        self.workers.iter().map(|w| w.deque.len()).sum()
    }
}

/// One exploration's bounds.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    workers: usize,
    /// Batches each producer publishes; one producer (and session) each.
    batches: &'static [u8],
    /// Channel capacity in batches.
    cap: u8,
    /// Session 0 ships one epoch job on its first batch.
    job: bool,
    shutdown: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ret {
    Worker,
    Send(u8),
    Finish,
}

/// Where an actor is in its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    // Workers.
    Ready,
    Idle,
    Parked { notified: bool },
    Job(Sid),
    JobPublish(Sid),
    Exited,
    // A turn, a worker's or a helper's.
    Pump { sid: Sid, ret: Ret },
    Submit { sid: Sid, ret: Ret, progress: bool },
    GiveBack { sid: Sid, ret: Ret, finished: bool, more: bool },
    // Producers.
    Send(u8),
    Help(Ret),
    BlockedSend(u8),
    Publish(u8),
    Close,
    ClosePublish,
    BlockedFinish,
    Done,
    // The shutdown caller.
    Running,
    ShutDown,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Session {
    pending: u8,
    closed: bool,
    finalized: bool,
    jobs_left: u8,
    in_flight: u8,
    results: u8,
    /// The actor pumping it.
    holder: Option<usize>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    proto: Protocol<Sid, Sid>,
    sessions: Vec<Session>,
    /// Workers, then producers, then the shutdown caller.
    pcs: Vec<Pc>,
}

impl World {
    fn new(b: Bounds) -> World {
        let mut proto = Protocol::new(b.workers);
        let sessions = (0..b.batches.len())
            .map(|i| Session { jobs_left: u8::from(b.job && i == 0), ..Session::default() })
            .collect();
        for sid in 0..b.batches.len() as Sid {
            proto.open(sid, sid);
        }
        let mut pcs = vec![Pc::Ready; b.workers];
        pcs.extend(b.batches.iter().map(|&n| if n == 0 { Pc::Close } else { Pc::Send(n) }));
        pcs.push(if b.shutdown { Pc::Running } else { Pc::ShutDown });
        World { proto, sessions, pcs }
    }

    fn deliver(&mut self, notify: Notify, workers: usize) {
        for w in 0..workers {
            if notify == Notify::All || notify == Notify::One(w) {
                if let Pc::Parked { notified } = &mut self.pcs[w] {
                    *notified = true;
                }
            }
        }
    }

    /// Runs `actor`'s next step; `None` if it cannot move.
    fn step(&self, b: Bounds, actor: usize) -> Option<Result<World, String>> {
        let mut w = self.clone();
        let r = w.apply(b, actor)?;
        Some(r.and_then(|()| w.check().map(|()| w)))
    }

    fn apply(&mut self, b: Bounds, a: usize) -> Option<Result<(), String>> {
        let n = b.workers;
        let sid_of = |a: usize| (a - n) as Sid;
        let next;
        let mut notify = Notify::Nobody;
        match self.pcs[a] {
            Pc::Ready => {
                let (step, note) = self.proto.next(a);
                notify = note;
                next = match step {
                    Step::Job(j) => Pc::Job(j),
                    Step::Pump(c) => {
                        if c.gate.is_none() {
                            return Some(Err("a worker's checkout without the gate input".into()));
                        }
                        if let Err(e) = self.hold(c.sid, a) {
                            return Some(Err(e));
                        }
                        Pc::Pump { sid: c.sid, ret: Ret::Worker }
                    }
                    Step::Idle => Pc::Idle,
                    Step::Exit => {
                        let p = &self.proto;
                        if p.helps > 0 || !p.workers[a].deque.is_empty() || !p.jobs.is_empty() {
                            return Some(Err(format!("worker {a} exited with work left")));
                        }
                        Pc::Exited
                    }
                };
            }
            Pc::Idle => {
                next = if self.proto.park(a) { Pc::Parked { notified: false } } else { Pc::Ready }
            }
            Pc::Parked { notified: false } | Pc::Exited | Pc::Done | Pc::ShutDown => return None,
            Pc::Parked { notified: true } => {
                next = if self.proto.woken(a) { Pc::Ready } else { Pc::Parked { notified: false } };
            }
            Pc::Job(sid) => {
                let s = &mut self.sessions[sid as usize];
                s.results += u8::from(!s.finalized);
                next = Pc::JobPublish(sid);
            }
            Pc::JobPublish(sid) => {
                notify = self.proto.publish(sid);
                next = Pc::Ready;
            }
            Pc::Pump { sid, ret } => {
                let s = &mut self.sessions[sid as usize];
                let progress = s.results > 0 || s.pending > 0;
                s.in_flight -= std::mem::take(&mut s.results);
                let mut ships = false;
                if s.pending > 0 {
                    s.pending -= 1;
                    ships = s.jobs_left > 0;
                    s.jobs_left -= u8::from(ships);
                    s.in_flight += u8::from(ships);
                }
                next = if ships {
                    Pc::Submit { sid, ret, progress }
                } else {
                    observe(s, sid, ret, progress)
                };
            }
            Pc::Submit { sid, ret, progress } => {
                notify = self.proto.submit(sid);
                next = observe(&self.sessions[sid as usize], sid, ret, progress);
            }
            Pc::GiveBack { sid, ret, finished, more } => {
                let by = if ret == Ret::Worker { By::Worker(a) } else { By::Helper };
                let shutdown = self.proto.shutdown;
                self.sessions[sid as usize].holder = None;
                let (done, note) = self.proto.give_back(by, sid, sid, finished, more);
                notify = note;
                if by == By::Helper && shutdown && done.is_none() {
                    return Some(Err("a helper put a session back after shutdown".into()));
                }
                if done.is_some() {
                    let s = &mut self.sessions[sid as usize];
                    if s.finalized {
                        return Some(Err(format!("session {sid} finalized twice")));
                    }
                    s.finalized = true;
                    s.pending = 0;
                }
                next = resume(ret);
            }
            Pc::Send(k) => {
                let s = &mut self.sessions[a - n];
                next = if s.finalized {
                    Pc::Close
                } else if s.pending < b.cap {
                    s.pending += 1;
                    Pc::Publish(k - 1)
                } else {
                    Pc::Help(Ret::Send(k))
                };
            }
            Pc::BlockedSend(k) => {
                let s = &mut self.sessions[a - n];
                if s.finalized {
                    next = Pc::Close;
                } else if s.pending < b.cap {
                    s.pending += 1;
                    next = Pc::Publish(k - 1);
                } else {
                    return None;
                }
            }
            Pc::Help(Ret::Finish) if self.sessions[a - n].finalized => next = Pc::Done,
            Pc::Help(ret) => {
                let parked = self.proto.parked_workers() > 0;
                next = match self.proto.help() {
                    None => blocked(ret),
                    Some(_) if parked => {
                        return Some(Err("help ran a turn while a worker was parked".into()));
                    }
                    Some(c) if c.gate.is_some() => {
                        return Some(Err("a helped turn carries the gate input".into()));
                    }
                    Some(c) => match self.hold(c.sid, a) {
                        Ok(()) => Pc::Pump { sid: c.sid, ret },
                        Err(e) => return Some(Err(e)),
                    },
                };
            }
            Pc::Publish(k) => {
                notify = self.proto.publish(sid_of(a));
                next = if k == 0 { Pc::Close } else { Pc::Send(k) };
            }
            Pc::Close => {
                self.sessions[a - n].closed = true;
                next = Pc::ClosePublish;
            }
            Pc::ClosePublish => {
                notify = self.proto.publish(sid_of(a));
                next = Pc::Help(Ret::Finish);
            }
            Pc::BlockedFinish if self.sessions[a - n].finalized => next = Pc::Done,
            Pc::BlockedFinish => return None,
            Pc::Running => {
                notify = self.proto.shutdown();
                next = Pc::ShutDown;
            }
        }
        self.pcs[a] = next;
        self.deliver(notify, n);
        Some(Ok(()))
    }

    fn hold(&mut self, sid: Sid, actor: usize) -> Result<(), String> {
        let s = &mut self.sessions[sid as usize];
        if let Some(other) = s.holder {
            return Err(format!("session {sid} checked out by {actor} while {other} pumps it"));
        }
        if s.finalized {
            return Err(format!("session {sid} checked out after it was finalized"));
        }
        s.holder = Some(actor);
        Ok(())
    }

    /// The state invariants. While a worker is parked with no ring
    /// pending, its own deque holds nothing runnable, and the work no idle
    /// worker can reach at once — queued jobs, runnable sessions behind
    /// busy workers — is no more than the workers already alerted to it
    /// (awake and not busy, or rung) can take.
    fn check(&self) -> Result<(), String> {
        let p = &self.proto;
        let runnable = |w: &Worker| w.deque.iter().filter(|sid| p.slots[*sid].runnable).count();
        // Once shut down, sessions are no longer stolen: each worker
        // finalizes its own deque.
        let stealable = p.workers.iter().filter(|w| w.busy && !p.shutdown);
        let stranded: usize = p.jobs.len() + stealable.map(runnable).sum::<usize>();
        let alerted = p.workers.iter().filter(|w| w.rung || !(w.parked || w.busy || w.exited));
        for (x, wx) in p.workers.iter().enumerate() {
            if wx.exited && !wx.deque.is_empty() {
                return Err(format!("worker {x} exited with sessions resident"));
            }
            if !wx.parked || wx.rung {
                continue;
            }
            if runnable(wx) > 0 {
                return Err(format!("worker {x} parked with a runnable session of its own"));
            }
            if stranded > alerted.clone().count() {
                return Err(format!("worker {x} parked while {stranded} jobs or sessions wait"));
            }
        }
        Ok(())
    }

    /// A state where no actor can move.
    fn check_stuck(&self, b: Bounds) -> Result<(), String> {
        let producers = &self.pcs[b.workers..b.workers + b.batches.len()];
        if let Some(p) = producers.iter().position(|pc| *pc != Pc::Done) {
            return Err(format!("stuck with producer {p} at {:?}", producers[p]));
        }
        if self.pcs[b.workers + b.batches.len()] == Pc::ShutDown
            && b.shutdown
            && self.pcs[..b.workers].iter().any(|pc| *pc != Pc::Exited)
        {
            return Err("stuck after shutdown with a worker still running".into());
        }
        Ok(())
    }
}

/// What the pumper reads off the channel after its turn (outside the
/// lock): whether the session is finished, and whether it has more.
fn observe(s: &Session, sid: Sid, ret: Ret, progress: bool) -> Pc {
    let finished = s.closed && s.pending == 0 && s.in_flight == 0;
    Pc::GiveBack { sid, ret, finished, more: progress && s.pending > 0 }
}

/// Where a turn's pumper goes next: a worker moves on, a producer retries
/// its send or its `finish`.
fn resume(ret: Ret) -> Pc {
    match ret {
        Ret::Worker => Pc::Ready,
        Ret::Send(k) => Pc::Send(k),
        Ret::Finish => Pc::Help(Ret::Finish),
    }
}

fn blocked(ret: Ret) -> Pc {
    match ret {
        Ret::Send(k) => Pc::BlockedSend(k),
        _ => Pc::BlockedFinish,
    }
}

fn actors(b: Bounds) -> usize {
    b.workers + b.batches.len() + 1
}

fn name(b: Bounds, actor: usize) -> String {
    match actor {
        a if a < b.workers => format!("w{a}"),
        a if a < b.workers + b.batches.len() => format!("p{}", a - b.workers),
        _ => "shutdown".into(),
    }
}

fn fingerprint(w: &World) -> u64 {
    let mut h = DefaultHasher::new();
    w.hash(&mut h);
    h.finish()
}

/// Explores every interleaving within `b`; returns the states visited, or
/// panics with a replayable counterexample.
fn explore(b: Bounds) -> usize {
    let start = World::new(b);
    let mut seen = HashSet::from([fingerprint(&start)]);
    // Depth-first: each frame is a state, the next actor to try from it,
    // and whether any actor could move from it.
    let mut stack = vec![(start, 0usize, false)];
    let mut path: Vec<usize> = Vec::new();
    let fail = |path: &[usize], why: String| -> ! {
        let steps: Vec<String> = path.iter().map(|&a| format!("{:?}", name(b, a))).collect();
        panic!("{why}\n  bounds: {b:?}\n  replay: replay({b:?}, &[{}])", steps.join(", "));
    };
    while let Some((world, actor, moved)) = stack.last_mut() {
        if *actor == actors(b) {
            if !*moved {
                if let Err(why) = world.check_stuck(b) {
                    fail(&path, why);
                }
            }
            stack.pop();
            path.pop();
            continue;
        }
        let a = *actor;
        *actor += 1;
        let Some(result) = world.step(b, a) else { continue };
        *moved = true;
        path.push(a);
        match result {
            Err(why) => fail(&path, why),
            Ok(next) if seen.insert(fingerprint(&next)) => stack.push((next, 0, false)),
            Ok(_) => {
                path.pop();
            }
        }
    }
    seen.len()
}

/// Runs a counterexample's actor sequence again, printing each state, and
/// returns the first violation it meets.
#[allow(dead_code)]
fn replay(b: Bounds, steps: &[&str]) -> Result<(), String> {
    let mut world = World::new(b);
    for (i, step) in steps.iter().enumerate() {
        let actor = (0..actors(b)).find(|&a| name(b, a) == *step).expect("a known actor");
        world = world.step(b, actor).ok_or_else(|| format!("step {i}: {step} cannot move"))??;
        eprintln!("{i:3} {step:>8}: {:?}\n     {:?}", world.pcs, world.proto);
    }
    Ok(())
}

fn run(b: Bounds) {
    let states = explore(b);
    eprintln!("protocol explorer: {states} states explored at {b:?}");
}

#[test]
fn protocol_holds_for_two_workers_and_two_helping_producers() {
    for shutdown in [false, true] {
        run(Bounds { workers: 2, batches: &[1, 1], cap: 1, job: false, shutdown });
    }
}

#[test]
fn protocol_holds_for_one_worker_and_two_helping_producers() {
    for shutdown in [false, true] {
        run(Bounds { workers: 1, batches: &[2, 1], cap: 1, job: true, shutdown });
    }
}

#[test]
fn protocol_holds_for_two_workers_and_one_producer() {
    for shutdown in [false, true] {
        run(Bounds { workers: 2, batches: &[2], cap: 1, job: true, shutdown });
    }
}

/// The larger configurations: more batches per producer, three workers,
/// or three sessions. Run in release by `ci/release-tests.sh`
/// (`--include-ignored`).
#[test]
#[ignore = "larger bounds; run in release by ci/release-tests.sh"]
fn protocol_holds_at_larger_bounds() {
    run(Bounds { workers: 2, batches: &[1, 1], cap: 1, job: true, shutdown: true });
    run(Bounds { workers: 2, batches: &[2, 1], cap: 1, job: true, shutdown: true });
    run(Bounds { workers: 3, batches: &[1, 1], cap: 1, job: true, shutdown: true });
    run(Bounds { workers: 2, batches: &[1, 1, 1], cap: 1, job: false, shutdown: true });
}
