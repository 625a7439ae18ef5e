//! The admission lane: coalesces concurrent in-flight point queries
//! into engine-sized query batches, with no thread of its own.
//!
//! The paper's central observation — and the engine's measured behavior
//! — is that batched multi-source reachability is dramatically cheaper
//! per query than one-at-a-time dispatch (the memo cache, the grain
//! scheduling, and the per-batch fixed costs all amortize). A network
//! front end naturally receives queries one connection at a time, so a
//! [`Lane`] sits between the sockets and the engine as a
//! **leader/follower combiner** (the group-commit shape): a submitter
//! that finds no batch in flight becomes the leader and runs
//! [`BatchSubmitter::submit`] on its own thread; submitters that arrive
//! meanwhile enqueue as followers and block. When the batch completes
//! the leader hands each follower of *its* batch its slice of the
//! answers and promotes the oldest waiter, which takes everything
//! pending — its own group and every group queued behind it — as the
//! next batch.
//!
//! Batch size therefore falls out of the arrival rate the lane observes:
//! an idle lane adds no wait (a lone submit is its own batch, dispatched
//! at once), and a busy lane coalesces whatever accumulated during the
//! previous engine call.
//!
//! Backpressure is explicit: pending queries are bounded by
//! [`CoalesceConfig::queue_cap`], and a submit that would exceed it
//! fails immediately with [`SubmitError::Overloaded`] — the server turns
//! that into an HTTP 503 instead of buffering without bound or hanging
//! the client.
//!
//! Lock order: a follower's slot lock is only ever taken *inside* the
//! lane lock (promotion, departure) or on its own (waiting, answering) —
//! never the other way round.
//!
//! Telemetry (all labeled `{graph="<name>"}`):
//! `pscc_server_queue_depth` gauge, `pscc_server_batches_total` and
//! `pscc_server_coalesced_queries_total` counters (their ratio is the
//! achieved mean batch size), `pscc_server_overload_total`, the
//! `pscc_server_batch_size` raw-count histogram, and
//! `pscc_server_service_nanos` — enqueue-to-answer latency per group,
//! the server-side component of what a client observes.

use pscc_engine::BatchSubmitter;
use pscc_graph::V;
use pscc_telemetry::recorder::{self, FlightEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The lane's one knob: how much may queue behind the batch in flight
/// before admission control sheds load.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceConfig {
    /// Maximum pending queries; beyond it submits fail with
    /// [`SubmitError::Overloaded`].
    pub queue_cap: usize,
}

impl Default for CoalesceConfig {
    fn default() -> CoalesceConfig {
        CoalesceConfig { queue_cap: 8192 }
    }
}

/// Why a submit did not produce answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — retry later (HTTP 503).
    Overloaded,
    /// The lane is shutting down.
    ShuttingDown,
    /// The caller's wait timeout elapsed before its group was answered.
    Timeout,
    /// The leader of the batch this group rode in unwound out of the
    /// engine call.
    Failed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue at capacity"),
            SubmitError::ShuttingDown => write!(f, "lane shutting down"),
            SubmitError::Timeout => write!(f, "timed out waiting for batch completion"),
            SubmitError::Failed => write!(f, "the batch's engine call did not complete"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a follower is told through its [`Slot`].
enum Turn {
    /// Queued behind, or riding in, the batch in flight.
    Waiting,
    /// Promoted by the finishing leader: take everything pending and
    /// lead the next batch.
    Lead,
    /// This group's slice of its batch's answers.
    Answered(Vec<bool>),
    /// The batch's leader unwound before answering.
    Failed,
}

/// One follower's mailbox.
struct Slot {
    turn: Mutex<Turn>,
    changed: Condvar,
}

impl Slot {
    fn set(&self, turn: Turn) {
        *self.turn.lock().expect("slot lock") = turn;
        self.changed.notify_one();
    }
}

/// One follower's reservation in the pending batch.
struct PendingGroup {
    slot: Arc<Slot>,
    len: usize,
    enqueued: Instant,
}

struct LaneState {
    /// Queries of every pending group, in group order.
    queries: Vec<(V, V)>,
    /// Followers waiting for the next batch, oldest first. Non-empty
    /// only while `led`: a pending group always has a leader coming.
    groups: VecDeque<PendingGroup>,
    /// Some thread holds leadership: it is inside the engine call, or it
    /// was promoted and has not taken the pending groups yet.
    led: bool,
    shutdown: bool,
}

/// Cached per-graph metric handles (label-in-name convention).
struct LaneMetrics {
    queue_depth: Arc<pscc_telemetry::Gauge>,
    batches: Arc<pscc_telemetry::Counter>,
    queries: Arc<pscc_telemetry::Counter>,
    overloads: Arc<pscc_telemetry::Counter>,
    batch_size: Arc<pscc_telemetry::Histogram>,
    service_nanos: Arc<pscc_telemetry::Histogram>,
}

fn graph_metric(base: &str, graph: &str) -> String {
    format!("{base}{{graph=\"{}\"}}", pscc_telemetry::escape_label_value(graph))
}

impl LaneMetrics {
    fn for_graph(graph: &str) -> LaneMetrics {
        LaneMetrics {
            queue_depth: pscc_telemetry::gauge(&graph_metric("pscc_server_queue_depth", graph)),
            batches: pscc_telemetry::counter(&graph_metric("pscc_server_batches_total", graph)),
            queries: pscc_telemetry::counter(&graph_metric(
                "pscc_server_coalesced_queries_total",
                graph,
            )),
            overloads: pscc_telemetry::counter(&graph_metric("pscc_server_overload_total", graph)),
            batch_size: pscc_telemetry::histogram(&graph_metric("pscc_server_batch_size", graph)),
            service_nanos: pscc_telemetry::histogram(&graph_metric(
                "pscc_server_service_nanos",
                graph,
            )),
        }
    }
}

/// Answers one batch: the engine in production, a gate the test opens
/// in this module's unit tests.
type Executor = Box<dyn Fn(&[(V, V)]) -> Vec<bool> + Send + Sync>;

/// A per-graph admission lane, shared by every connection handler of
/// the graph. It owns no thread: batches run on the submitting threads.
pub struct Lane {
    state: Mutex<LaneState>,
    execute: Executor,
    queue_cap: usize,
    graph: String,
    metrics: LaneMetrics,
}

/// Leadership of one batch. Dropping it — on return or while unwinding
/// out of the engine call — fails the followers that were not answered
/// and passes leadership on, so the lane can never be left led by nobody.
struct Leadership<'a> {
    lane: &'a Lane,
    followers: VecDeque<PendingGroup>,
}

impl Drop for Leadership<'_> {
    fn drop(&mut self) {
        for group in self.followers.drain(..) {
            group.slot.set(Turn::Failed);
        }
        let mut st = self.lane.state.lock().expect("lane lock");
        match st.groups.front() {
            Some(oldest) => oldest.slot.set(Turn::Lead),
            None => st.led = false,
        }
    }
}

impl Lane {
    /// Open a lane over `submitter`. Nothing here can fail; the `Result`
    /// is the signature existing callers unwrap.
    pub fn start(submitter: BatchSubmitter, config: CoalesceConfig) -> std::io::Result<Lane> {
        let graph = submitter.graph_name().to_string();
        if recorder::is_active() {
            recorder::record(
                FlightEvent::new("server_lane_open")
                    .field("graph", &graph)
                    .field("queue_cap", config.queue_cap as u64),
            );
        }
        Ok(Lane::over(&graph, Box::new(move |queries| submitter.submit(queries)), config))
    }

    fn over(graph: &str, execute: Executor, config: CoalesceConfig) -> Lane {
        Lane {
            state: Mutex::new(LaneState {
                queries: Vec::new(),
                groups: VecDeque::new(),
                led: false,
                shutdown: false,
            }),
            execute,
            queue_cap: config.queue_cap,
            graph: graph.to_string(),
            metrics: LaneMetrics::for_graph(graph),
        }
    }

    /// Submit `queries` as one group and block until the batch they
    /// ride in completes. Answers come back in query order. On an idle
    /// lane the group is its own batch, run at once on this thread;
    /// otherwise it queues behind the batch in flight for at most
    /// `timeout`. Fails fast with [`SubmitError::Overloaded`] when the
    /// queue is at capacity — that is the backpressure signal.
    pub fn submit_wait(
        &self,
        queries: &[(V, V)],
        timeout: Duration,
    ) -> Result<Vec<bool>, SubmitError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let enqueued = Instant::now();
        let slot = {
            let mut st = self.state.lock().expect("lane lock");
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if st.queries.len() + queries.len() > self.queue_cap {
                self.metrics.overloads.inc();
                if recorder::is_active() {
                    recorder::record(
                        FlightEvent::new("server_overload")
                            .field("graph", &self.graph)
                            .field("pending", st.queries.len() as u64)
                            .field("rejected", queries.len() as u64),
                    );
                }
                return Err(SubmitError::Overloaded);
            }
            if !st.led {
                // Idle lane, so nothing is pending either: this group is
                // its own batch.
                st.led = true;
                drop(st);
                let _lead = Leadership { lane: self, followers: VecDeque::new() };
                let answers = self.run_batch(queries);
                self.metrics.service_nanos.record(enqueued.elapsed());
                return Ok(answers);
            }
            st.queries.extend_from_slice(queries);
            let slot = Arc::new(Slot { turn: Mutex::new(Turn::Waiting), changed: Condvar::new() });
            st.groups.push_back(PendingGroup { slot: slot.clone(), len: queries.len(), enqueued });
            self.metrics.queue_depth.set(st.queries.len() as i64);
            slot
        };
        match self.await_turn(&slot, enqueued + timeout) {
            Some(outcome) => outcome,
            None => Ok(self.lead_pending(queries.len(), enqueued)),
        }
    }

    /// Blocks a follower until its group is settled (`Some`) or it is
    /// promoted to lead the next batch (`None`).
    fn await_turn(
        &self,
        slot: &Arc<Slot>,
        deadline: Instant,
    ) -> Option<Result<Vec<bool>, SubmitError>> {
        let mut turn = slot.turn.lock().expect("slot lock");
        loop {
            match std::mem::replace(&mut *turn, Turn::Waiting) {
                Turn::Answered(answers) => return Some(Ok(answers)),
                Turn::Failed => return Some(Err(SubmitError::Failed)),
                Turn::Lead => return None,
                Turn::Waiting => {}
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                drop(turn);
                return self.leave(slot).then_some(Err(SubmitError::Timeout));
            }
            turn = slot.changed.wait_timeout(turn, remaining).expect("slot lock").0;
        }
    }

    /// A timed-out follower leaves the queue. Promotion and departure
    /// both happen under the lane lock, so the waiter is either gone
    /// before the finishing leader looks for a successor (and is
    /// skipped), or already promoted — then it may not leave (`false`)
    /// and leads after all: leadership is never handed to a thread that
    /// has gone. A group already riding in the batch in flight just
    /// stops waiting for its answers.
    fn leave(&self, slot: &Arc<Slot>) -> bool {
        let mut st = self.state.lock().expect("lane lock");
        if matches!(*slot.turn.lock().expect("slot lock"), Turn::Lead) {
            return false;
        }
        if let Some(at) = st.groups.iter().position(|g| Arc::ptr_eq(&g.slot, slot)) {
            let start: usize = st.groups.iter().take(at).map(|g| g.len).sum();
            let len = st.groups[at].len;
            st.groups.remove(at);
            st.queries.drain(start..start + len);
            self.metrics.queue_depth.set(st.queries.len() as i64);
        }
        true
    }

    /// A promoted follower's turn: everything pending — its own group
    /// first, then every group queued behind it — leaves as one batch.
    fn lead_pending(&self, own_len: usize, enqueued: Instant) -> Vec<bool> {
        let (queries, mut lead) = {
            let mut st = self.state.lock().expect("lane lock");
            let mut followers = std::mem::take(&mut st.groups);
            // This thread's own group: promotion picks the oldest, and a
            // promoted group cannot leave.
            followers.pop_front();
            self.metrics.queue_depth.set(0);
            (std::mem::take(&mut st.queries), Leadership { lane: self, followers })
        };
        let mut answers = self.run_batch(&queries);
        let mut offset = own_len;
        while let Some(group) = lead.followers.pop_front() {
            self.metrics.service_nanos.record(group.enqueued.elapsed());
            group.slot.set(Turn::Answered(answers[offset..offset + group.len].to_vec()));
            offset += group.len;
        }
        self.metrics.service_nanos.record(enqueued.elapsed());
        answers.truncate(own_len);
        answers
    }

    fn run_batch(&self, queries: &[(V, V)]) -> Vec<bool> {
        let answers = (self.execute)(queries);
        self.metrics.batches.inc();
        self.metrics.queries.add(queries.len() as u64);
        self.metrics.batch_size.record_nanos(queries.len() as u64);
        answers
    }

    /// Batches dispatched to the engine so far.
    pub fn batches_formed(&self) -> u64 {
        self.metrics.batches.get()
    }

    /// Queries answered through those batches. The ratio of this to
    /// [`batches_formed`](Lane::batches_formed) is the achieved mean
    /// batch size — the coalescing win.
    pub fn queries_coalesced(&self) -> u64 {
        self.metrics.queries.get()
    }

    /// Submits rejected at capacity.
    pub fn overloads(&self) -> u64 {
        self.metrics.overloads.get()
    }

    /// Refuse new groups from now on ([`SubmitError::ShuttingDown`]);
    /// does not block. Groups already pending still get their answers
    /// from the leaders among them.
    pub fn shutdown(&self) {
        self.state.lock().expect("lane lock").shutdown = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};

    const WAIT: Duration = Duration::from_secs(60);
    /// A query the gated executor panics on, before it waits at the gate.
    const POISON: (V, V) = (V::MAX, V::MAX);

    /// The test's end of a lane whose engine is a gate: every batch
    /// announces itself (`next_batch`), then blocks until the test lets
    /// one batch through (`open`). Tokens sent ahead are kept, so
    /// `open` before a submit lets that submit straight through. The
    /// executor itself asserts that batches never overlap.
    struct Gate {
        entered: Receiver<Vec<(V, V)>>,
        tokens: Sender<()>,
    }

    impl Gate {
        /// Blocks until a leader is inside the engine call; its batch.
        fn next_batch(&self) -> Vec<(V, V)> {
            self.entered.recv_timeout(WAIT).expect("a batch reaches the engine")
        }

        fn open(&self) {
            self.tokens.send(()).expect("lane alive");
        }
    }

    fn answer(queries: &[(V, V)]) -> Vec<bool> {
        queries.iter().map(|&(u, v)| u <= v).collect()
    }

    // Metric handles are global and keyed by graph name, so every test
    // uses its own name to keep counter assertions independent.
    fn gated_lane(name: &str, queue_cap: usize) -> (Lane, Gate) {
        let (entered_tx, entered) = channel();
        let (tokens, tokens_rx) = channel::<()>();
        let tokens_rx = Mutex::new(tokens_rx);
        let busy = AtomicBool::new(false);
        let execute = move |queries: &[(V, V)]| {
            assert!(!queries.contains(&POISON), "poisoned batch");
            assert!(!busy.swap(true, Ordering::AcqRel), "two batches in flight on one lane");
            entered_tx.send(queries.to_vec()).expect("test alive");
            tokens_rx.lock().unwrap().recv_timeout(WAIT).expect("the test opens the gate");
            busy.store(false, Ordering::Release);
            answer(queries)
        };
        (
            Lane::over(name, Box::new(execute), CoalesceConfig { queue_cap }),
            Gate { entered, tokens },
        )
    }

    fn pending(lane: &Lane) -> usize {
        lane.state.lock().unwrap().queries.len()
    }

    /// Spins until `queries` are pending: the followers have enqueued.
    fn await_pending(lane: &Lane, queries: usize) {
        while pending(lane) != queries {
            std::thread::yield_now();
        }
    }

    #[test]
    fn lone_submit_on_an_idle_lane_is_its_own_batch() {
        let (lane, gate) = gated_lane("lane_lone", 64);
        for round in 1..=3 {
            gate.open();
            let queries = [(0, 9), (9, 0), (3, 3)];
            assert_eq!(lane.submit_wait(&queries, Duration::ZERO).unwrap(), answer(&queries));
            assert_eq!(gate.next_batch(), queries);
            assert_eq!(lane.batches_formed(), round);
            assert_eq!(lane.queries_coalesced(), 3 * round);
        }
        assert!(lane.submit_wait(&[], WAIT).unwrap().is_empty());
        assert_eq!(lane.batches_formed(), 3, "an empty group never reaches the engine");
    }

    #[test]
    fn groups_arriving_during_a_batch_leave_as_one_and_hand_off() {
        let (lane, gate) = gated_lane("lane_coalesce", 64);
        let groups: [&'static [(V, V)]; 5] =
            [&[(0, 1)], &[(5, 2), (2, 5)], &[(7, 7)], &[(9, 3), (3, 9), (4, 4)], &[(8, 1)]];
        std::thread::scope(|scope| {
            let lane = &lane;
            let submit =
                |group: &'static [(V, V)]| scope.spawn(move || lane.submit_wait(group, WAIT));
            let leader = submit(groups[0]);
            assert_eq!(gate.next_batch(), groups[0]);
            // Three groups arrive while batch 1 is in flight, in order.
            let mut followers = Vec::new();
            let mut queued = 0;
            for group in &groups[1..=3] {
                followers.push(submit(group));
                queued += group.len();
                await_pending(lane, queued);
            }
            gate.open();
            assert_eq!(leader.join().unwrap().unwrap(), answer(groups[0]));
            // The oldest waiter was promoted and leads all three as one batch.
            assert_eq!(gate.next_batch(), [groups[1], groups[2], groups[3]].concat());
            assert_eq!(pending(lane), 0);
            // A group arriving during batch 2 is handed leadership after it.
            let late = submit(groups[4]);
            await_pending(lane, 1);
            gate.open();
            for (follower, group) in followers.into_iter().zip(&groups[1..=3]) {
                assert_eq!(follower.join().unwrap().unwrap(), answer(group));
            }
            assert_eq!(gate.next_batch(), groups[4]);
            gate.open();
            assert_eq!(late.join().unwrap().unwrap(), answer(groups[4]));
        });
        assert_eq!(lane.batches_formed(), 3);
        assert_eq!(lane.queries_coalesced(), 8);
        // Nothing is left pending and nobody leads: the next submit does.
        let st = lane.state.lock().unwrap();
        assert!(st.groups.is_empty() && st.queries.is_empty() && !st.led);
    }

    #[test]
    fn queue_cap_overflow_is_refused_at_once_and_counted() {
        let (lane, gate) = gated_lane("lane_overload", 2);
        // A group that can never fit is refused even on an idle lane.
        assert_eq!(lane.submit_wait(&[(0, 1), (0, 2), (0, 3)], WAIT), Err(SubmitError::Overloaded));
        std::thread::scope(|scope| {
            let lane = &lane;
            // The batch in flight does not count against the queue.
            let leader = scope.spawn(move || lane.submit_wait(&[(0, 1), (0, 2)], WAIT));
            gate.next_batch();
            let filler = scope.spawn(move || lane.submit_wait(&[(1, 0), (0, 2)], WAIT));
            await_pending(lane, 2);
            assert_eq!(lane.submit_wait(&[(0, 3)], WAIT), Err(SubmitError::Overloaded));
            assert_eq!(pending(lane), 2, "a refused group leaves nothing behind");
            gate.open();
            gate.open();
            assert_eq!(leader.join().unwrap().unwrap(), vec![true, true]);
            assert_eq!(filler.join().unwrap().unwrap(), vec![false, true]);
        });
        assert_eq!(lane.overloads(), 2);
        assert_eq!(lane.batches_formed(), 2);
    }

    #[test]
    fn a_timed_out_follower_leaves_and_cannot_strand_leadership() {
        let (lane, gate) = gated_lane("lane_timeout", 64);
        std::thread::scope(|scope| {
            let lane = &lane;
            let leader = scope.spawn(move || lane.submit_wait(&[(0, 1)], WAIT));
            gate.next_batch();
            // Queued behind the batch in flight with no patience: gone
            // again, queries and all, before anyone could promote it.
            assert_eq!(
                lane.submit_wait(&[(2, 3), (4, 5)], Duration::ZERO),
                Err(SubmitError::Timeout)
            );
            assert_eq!(pending(lane), 0);
            let patient = scope.spawn(move || lane.submit_wait(&[(7, 6)], WAIT));
            await_pending(lane, 1);
            gate.open();
            assert_eq!(leader.join().unwrap().unwrap(), vec![true]);
            // The finishing leader skipped the departed waiter.
            assert_eq!(gate.next_batch(), [(7, 6)]);
            gate.open();
            assert_eq!(patient.join().unwrap().unwrap(), vec![false]);
        });
        assert_eq!(lane.queries_coalesced(), 2, "the departed group never reached the engine");
    }

    #[test]
    fn a_promoted_follower_may_not_leave() {
        // The other interleaving of timeout and promotion: the finishing
        // leader got there first. Departure must refuse, so that the
        // waiter leads instead of walking away with the leadership.
        let (lane, _gate) = gated_lane("lane_promoted", 64);
        let slot = Arc::new(Slot { turn: Mutex::new(Turn::Lead), changed: Condvar::new() });
        {
            let mut st = lane.state.lock().unwrap();
            st.led = true;
            st.queries.push((1, 2));
            st.groups.push_back(PendingGroup {
                slot: slot.clone(),
                len: 1,
                enqueued: Instant::now(),
            });
        }
        assert!(!lane.leave(&slot));
        assert_eq!(pending(&lane), 1);
        assert!(lane.await_turn(&slot, Instant::now()).is_none(), "promoted: told to lead");
    }

    #[test]
    fn shutdown_refuses_new_groups_but_answers_pending_ones() {
        let (lane, gate) = gated_lane("lane_shutdown", 64);
        std::thread::scope(|scope| {
            let lane = &lane;
            let leader = scope.spawn(move || lane.submit_wait(&[(0, 9)], WAIT));
            gate.next_batch();
            let pending_group = scope.spawn(move || lane.submit_wait(&[(9, 0)], WAIT));
            await_pending(lane, 1);
            lane.shutdown();
            assert_eq!(lane.submit_wait(&[(0, 1)], WAIT), Err(SubmitError::ShuttingDown));
            gate.open();
            gate.open();
            assert_eq!(leader.join().unwrap().unwrap(), vec![true]);
            assert_eq!(pending_group.join().unwrap().unwrap(), vec![false]);
        });
        assert_eq!(lane.submit_wait(&[(0, 1)], WAIT), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn a_leader_that_unwinds_fails_its_followers_and_releases_the_lane() {
        let (lane, gate) = gated_lane("lane_unwind", 64);
        std::thread::scope(|scope| {
            let lane = &lane;
            let first = scope.spawn(move || lane.submit_wait(&[(0, 1)], WAIT));
            gate.next_batch();
            // Next batch: a group whose engine call panics leads, with a
            // well-formed group riding behind it.
            let doomed = scope.spawn(move || lane.submit_wait(&[POISON], WAIT));
            await_pending(lane, 1);
            let rider = scope.spawn(move || lane.submit_wait(&[(3, 4)], WAIT));
            await_pending(lane, 2);
            gate.open();
            assert_eq!(first.join().unwrap().unwrap(), vec![true]);
            assert!(doomed.join().is_err(), "the engine panic surfaces on the leader's thread");
            assert_eq!(rider.join().unwrap(), Err(SubmitError::Failed));
        });
        // Leadership was released on the way out: the lane still serves.
        gate.open();
        assert_eq!(lane.submit_wait(&[(5, 6)], WAIT).unwrap(), vec![true]);
        assert_eq!(lane.batches_formed(), 2);
    }

    #[test]
    fn start_serves_the_engine_through_the_same_path() {
        use pscc_engine::Catalog;
        let cat = Catalog::new();
        cat.insert("lane_engine", pscc_graph::generators::simple::path_digraph(10));
        let lane =
            Lane::start(cat.submitter("lane_engine").unwrap(), CoalesceConfig::default()).unwrap();
        let ans = lane.submit_wait(&[(0, 9), (9, 0), (3, 3)], WAIT).unwrap();
        assert_eq!(ans, vec![true, false, true]);
        assert_eq!((lane.batches_formed(), lane.queries_coalesced()), (1, 3));
    }
}
