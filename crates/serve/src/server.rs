//! The resident campaign service: accept loop, priority job queue, worker
//! pool, and live NDJSON result streaming.
//!
//! # Architecture
//!
//! One thread per accepted connection parses the request and, for
//! `/submit`, owns the response stream for its job's lifetime. Jobs wait in
//! a priority queue (higher [`JobPriority`] first, FIFO within a priority)
//! drained by a fixed pool of worker threads. Each worker runs its job as a
//! single-threaded [`Campaign`] — pool parallelism is *across* jobs — and
//! forwards results through a per-job channel: the connection thread turns
//! them into HTTP chunks the moment they arrive.
//!
//! # The serving contract
//!
//! Every streamed run line is produced by [`run_to_json`], the same
//! renderer the one-shot CLI uses, and simulations are bit-identical at any
//! thread count — so a served line is byte-identical to the one-shot line
//! for the same point, whether it was computed now, computed by an earlier
//! job (dedup cache), or restored from a cache snapshot written before the
//! server was last restarted.
//!
//! # Shutdown
//!
//! `/shutdown` puts the server into *draining*: new submissions get a 503,
//! queued and running jobs finish and stream out normally, then workers
//! exit, the cache is persisted, and [`Server::run`] returns.

use std::collections::{BTreeMap, BinaryHeap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tc_system::{run_to_json, Campaign, RunReport};
use tc_types::{JobId, JobPriority, JobState, Json};

use crate::cache::ResultCache;
use crate::http::{read_request, write_response, ChunkedWriter, Request};
use crate::submission::{cache_key, Submission};

/// How often the accept loop wakes to reap finished connection threads and
/// check the drain-complete condition.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Worker threads, i.e. jobs simulated concurrently.
    pub workers: usize,
    /// When set, the dedup cache is loaded from here at bind time and
    /// persisted here at drain time, so a restarted server keeps history.
    pub cache_path: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7533".to_string(),
            workers: 2,
            cache_path: None,
        }
    }
}

/// Counters reported when the server drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs that completed successfully.
    pub jobs_completed: u64,
    /// Jobs that failed (a point panicked mid-run).
    pub jobs_failed: u64,
    /// Points actually simulated.
    pub points_run: u64,
    /// Points served from the dedup cache.
    pub points_cached: u64,
    /// Cache entries at shutdown.
    pub cache_entries: usize,
}

/// A queued job: ordered by priority (high first), then submission order.
#[derive(Debug, PartialEq, Eq)]
struct QueuedJob {
    priority: JobPriority,
    seq: u64,
    job: u64,
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins; within a
        // priority, the *earlier* submission (smaller seq) must compare
        // greater.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What a worker streams back to the connection thread that owns the job.
enum StreamEvent {
    /// One complete NDJSON run line, in submission order.
    Line(String),
    /// Job finished; `ran` points were simulated, `cache_hits` served from
    /// cache.
    Done { ran: usize, cache_hits: usize },
    /// Job died (a point panicked); the queue keeps serving.
    Failed(String),
}

struct JobRecord {
    state: JobState,
    priority: JobPriority,
    points_total: usize,
    points_done: usize,
    cache_hits: usize,
    /// Taken by the worker when the job starts.
    submission: Option<Submission>,
    /// Stream back to the connection thread; dropped when the job ends.
    events: Option<Sender<StreamEvent>>,
}

struct ServerState {
    queue: BinaryHeap<QueuedJob>,
    jobs: BTreeMap<u64, JobRecord>,
    next_job_id: u64,
    next_seq: u64,
    running: usize,
    draining: bool,
    cache: ResultCache,
    jobs_completed: u64,
    jobs_failed: u64,
    points_run: u64,
    points_cached: u64,
}

struct Shared {
    state: Mutex<ServerState>,
    work_ready: Condvar,
}

/// A bound, not-yet-running campaign service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    cache_path: Option<PathBuf>,
    /// Why a configured cache file was not restored (missing is silent;
    /// corrupt or unreadable is reported here), for the operator to print.
    pub cache_warning: Option<String>,
}

impl Server {
    /// Binds the listener and loads the cache (if configured).
    ///
    /// # Errors
    ///
    /// Returns the bind error; cache problems degrade to an empty cache
    /// with [`Server::cache_warning`] set instead of failing.
    pub fn bind(options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let (cache, cache_warning) = match &options.cache_path {
            Some(path) => ResultCache::load_or_empty(path),
            None => (ResultCache::new(), None),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(ServerState {
                    queue: BinaryHeap::new(),
                    jobs: BTreeMap::new(),
                    next_job_id: 1,
                    next_seq: 0,
                    running: 0,
                    draining: false,
                    cache,
                    jobs_completed: 0,
                    jobs_failed: 0,
                    points_run: 0,
                    points_cached: 0,
                }),
                work_ready: Condvar::new(),
            }),
            workers: options.workers.max(1),
            cache_path: options.cache_path,
            cache_warning,
        })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until drained: accepts connections, runs jobs, and returns
    /// once `/shutdown` was received and every queued and running job has
    /// finished. Persists the cache before returning.
    ///
    /// # Errors
    ///
    /// Returns accept-loop or cache-persistence I/O errors.
    pub fn run(self) -> io::Result<ServeStats> {
        self.listener.set_nonblocking(true)?;
        let workers: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let shared = self.shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();

        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = self.shared.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let (finished, live): (Vec<_>, Vec<_>) =
                        handlers.into_iter().partition(|h| h.is_finished());
                    for h in finished {
                        let _ = h.join();
                    }
                    handlers = live;
                    {
                        let state = self.shared.state.lock().unwrap();
                        if state.draining && state.queue.is_empty() && state.running == 0 {
                            break;
                        }
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drained: wake any workers parked on the condvar so they observe
        // `draining` and exit, then let in-flight streams finish.
        self.shared.work_ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        for h in handlers {
            let _ = h.join();
        }

        let state = self.shared.state.lock().unwrap();
        if let Some(path) = &self.cache_path {
            state.cache.persist(path)?;
        }
        Ok(ServeStats {
            jobs_completed: state.jobs_completed,
            jobs_failed: state.jobs_failed,
            points_run: state.points_run,
            points_cached: state.points_cached,
            cache_entries: state.cache.len(),
        })
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn json_line<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> String {
    format!("{}\n", Json::obj(fields))
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets must not inherit the listener's nonblocking mode,
    // and a dead client must not pin this thread forever.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(_) => return,
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/submit") => handle_submit(stream, shared, &request),
        ("GET", "/status") => {
            let body = render_status(shared);
            let _ = write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; charset=utf-8",
                body.as_bytes(),
            );
        }
        ("POST", "/shutdown") => {
            {
                let mut state = shared.state.lock().unwrap();
                state.draining = true;
            }
            shared.work_ready.notify_all();
            let body = json_line([("draining", Json::Bool(true))]);
            let _ = write_response(&mut stream, 200, "OK", "application/json", body.as_bytes());
        }
        _ => {
            let body = json_line([(
                "error",
                Json::Str(format!("no route for {} {}", request.method, request.path)),
            )]);
            let _ = write_response(
                &mut stream,
                404,
                "Not Found",
                "application/json",
                body.as_bytes(),
            );
        }
    }
}

fn handle_submit(mut stream: TcpStream, shared: &Arc<Shared>, request: &Request) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            let body = json_line([("error", Json::Str("body is not UTF-8".to_string()))]);
            let _ = write_response(
                &mut stream,
                400,
                "Bad Request",
                "application/json",
                body.as_bytes(),
            );
            return;
        }
    };
    // Reject malformed submissions *here*, with a structured error, before
    // anything reaches the queue — a bad protocol name must never take
    // down a worker.
    let submission = match Submission::parse(text) {
        Ok(submission) => submission,
        Err(e) => {
            let body = format!("{}\n", e.to_json());
            let _ = write_response(
                &mut stream,
                400,
                "Bad Request",
                "application/json",
                body.as_bytes(),
            );
            return;
        }
    };

    let (tx, rx) = mpsc::channel();
    let (job_id, points_total, priority) = {
        let mut state = shared.state.lock().unwrap();
        if state.draining {
            let body = json_line([(
                "error",
                Json::Str("server is draining; submission rejected".to_string()),
            )]);
            let _ = write_response(
                &mut stream,
                503,
                "Service Unavailable",
                "application/json",
                body.as_bytes(),
            );
            return;
        }
        let id = state.next_job_id;
        state.next_job_id += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        let points_total = submission.points.len();
        let priority = submission.priority;
        state.jobs.insert(
            id,
            JobRecord {
                state: JobState::Queued,
                priority,
                points_total,
                points_done: 0,
                cache_hits: 0,
                submission: Some(submission),
                events: Some(tx),
            },
        );
        state.queue.push(QueuedJob {
            priority,
            seq,
            job: id,
        });
        (id, points_total, priority)
    };
    shared.work_ready.notify_all();

    let mut chunked = match ChunkedWriter::begin(&mut stream, 200, "OK") {
        Ok(chunked) => chunked,
        Err(_) => return,
    };
    let ack = json_line([
        ("job", Json::Str(JobId(job_id).to_string())),
        ("points", Json::u64(points_total as u64)),
        ("priority", Json::Str(priority.name().to_string())),
    ]);
    if chunked.chunk(ack.as_bytes()).is_err() {
        return; // client went away; the worker still runs and fills the cache
    }
    for event in rx {
        match event {
            StreamEvent::Line(line) => {
                if chunked.chunk(line.as_bytes()).is_err() {
                    return;
                }
            }
            StreamEvent::Done { ran, cache_hits } => {
                let line = json_line([
                    ("done", Json::Bool(true)),
                    ("job", Json::Str(JobId(job_id).to_string())),
                    ("ran", Json::u64(ran as u64)),
                    ("cache_hits", Json::u64(cache_hits as u64)),
                ]);
                let _ = chunked.chunk(line.as_bytes());
                break;
            }
            StreamEvent::Failed(message) => {
                let line = json_line([
                    ("done", Json::Bool(false)),
                    ("job", Json::Str(JobId(job_id).to_string())),
                    ("error", Json::Str(message)),
                ]);
                let _ = chunked.chunk(line.as_bytes());
                break;
            }
        }
    }
    let _ = chunked.end();
}

fn render_status(shared: &Arc<Shared>) -> String {
    use std::fmt::Write as _;
    let state = shared.state.lock().unwrap();
    let mut out = String::new();
    let _ = writeln!(out, "tc-serve campaign service");
    let _ = writeln!(
        out,
        "queue depth: {}  running: {}  draining: {}",
        state.queue.len(),
        state.running,
        if state.draining { "yes" } else { "no" }
    );
    let _ = writeln!(
        out,
        "cache: {} entries, {} hits, {} misses ({:.1}% hit rate)",
        state.cache.len(),
        state.cache.hits,
        state.cache.misses,
        state.cache.hit_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "lifetime: {} completed, {} failed, {} points run, {} points cached",
        state.jobs_completed, state.jobs_failed, state.points_run, state.points_cached
    );
    let _ = writeln!(out, "jobs:");
    for (id, rec) in &state.jobs {
        let _ = writeln!(
            out,
            "  {:<8} {:<8} {:<7} {}/{} points, {} cached",
            JobId(*id).to_string(),
            rec.state.name(),
            rec.priority.name(),
            rec.points_done,
            rec.points_total,
            rec.cache_hits
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (job_id, submission, sender) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(next) = state.queue.pop() {
                    let record = state
                        .jobs
                        .get_mut(&next.job)
                        .expect("queued job must have a record");
                    record.state = JobState::Running;
                    let submission = record
                        .submission
                        .take()
                        .expect("queued job must carry its submission");
                    let sender = record.events.clone();
                    state.running += 1;
                    break (next.job, submission, sender);
                }
                if state.draining {
                    return;
                }
                state = shared.work_ready.wait(state).unwrap();
            }
        };

        let outcome = run_job(shared, job_id, submission, sender.as_ref());

        let mut state = shared.state.lock().unwrap();
        state.running -= 1;
        let record = state.jobs.get_mut(&job_id).expect("job record");
        record.events = None;
        match outcome {
            Ok((ran, cache_hits)) => {
                record.state = JobState::Done;
                record.points_done = record.points_total;
                record.cache_hits = cache_hits;
                state.jobs_completed += 1;
                state.points_run += ran as u64;
                state.points_cached += cache_hits as u64;
            }
            Err(_) => {
                record.state = JobState::Failed;
                state.jobs_failed += 1;
            }
        }
    }
}

/// Sends the in-order prefix of ready lines downstream.
fn flush_ready(
    ready: &mut BTreeMap<usize, String>,
    next_emit: &mut usize,
    sender: Option<&Sender<StreamEvent>>,
) {
    while let Some(line) = ready.remove(next_emit) {
        if let Some(sender) = sender {
            let _ = sender.send(StreamEvent::Line(line));
        }
        *next_emit += 1;
    }
}

/// Runs one job: serves cache hits, simulates the rest as a
/// single-threaded streaming campaign, emits lines in submission order, and
/// folds fresh results back into the cache.
fn run_job(
    shared: &Arc<Shared>,
    job_id: u64,
    submission: Submission,
    sender: Option<&Sender<StreamEvent>>,
) -> Result<(usize, usize), String> {
    let Submission {
        options, points, ..
    } = submission;
    let total = points.len();

    // Partition into cache hits (line pre-rendered now) and points to run.
    let mut ready: BTreeMap<usize, String> = BTreeMap::new();
    let mut to_run = Vec::new();
    let mut run_keys: Vec<String> = Vec::new();
    let mut run_index: Vec<usize> = Vec::new();
    {
        let mut state = shared.state.lock().unwrap();
        for (i, point) in points.into_iter().enumerate() {
            let key = cache_key(&point, &options);
            if let Some(report) = state.cache.lookup(&key) {
                // Cached under any label: re-render with *this* label.
                ready.insert(i, format!("{}\n", run_to_json(&point.label, report)));
            } else {
                run_keys.push(key);
                run_index.push(i);
                to_run.push(point);
            }
        }
        let cache_hits = total - to_run.len();
        let record = state.jobs.get_mut(&job_id).expect("job record");
        record.cache_hits = cache_hits;
    }
    let cache_hits = total - to_run.len();
    let ran = to_run.len();

    let mut next_emit = 0usize;
    flush_ready(&mut ready, &mut next_emit, sender);

    let mut computed: Vec<(usize, RunReport)> = Vec::new();
    if !to_run.is_empty() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(to_run)
                .options(options)
                .threads(1)
                .run_streaming(|index, run| {
                    let line = format!("{}\n", run_to_json(&run.label, &run.report));
                    ready.insert(run_index[index], line);
                    computed.push((index, run.report.clone()));
                    flush_ready(&mut ready, &mut next_emit, sender);
                    let mut state = shared.state.lock().unwrap();
                    if let Some(record) = state.jobs.get_mut(&job_id) {
                        record.points_done = next_emit;
                    }
                });
        }));

        // Whatever completed before a panic is still a valid, bit-exact
        // result: cache it so the work is not lost.
        {
            let mut state = shared.state.lock().unwrap();
            for (index, report) in computed {
                state.cache.insert(run_keys[index].clone(), report);
            }
        }

        if let Err(payload) = result {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            if let Some(sender) = sender {
                let _ = sender.send(StreamEvent::Failed(message.clone()));
            }
            return Err(message);
        }
    }

    debug_assert_eq!(next_emit, total, "every line must have been emitted");
    if let Some(sender) = sender {
        let _ = sender.send(StreamEvent::Done { ran, cache_hits });
    }
    Ok((ran, cache_hits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_priority_then_submission() {
        let mut heap = BinaryHeap::new();
        heap.push(QueuedJob {
            priority: JobPriority::Normal,
            seq: 0,
            job: 1,
        });
        heap.push(QueuedJob {
            priority: JobPriority::Low,
            seq: 1,
            job: 2,
        });
        heap.push(QueuedJob {
            priority: JobPriority::High,
            seq: 2,
            job: 3,
        });
        heap.push(QueuedJob {
            priority: JobPriority::High,
            seq: 3,
            job: 4,
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|q| q.job).collect();
        assert_eq!(order, vec![3, 4, 1, 2]);
    }
}
