//! The listener: accept thread + per-connection handler threads, with
//! graceful shutdown by stop flag, loopback poke and join.

use crate::http::{self, ReadOutcome, RequestMeta, Response};
use crate::{Engine, RequestRecord};
use disq_trace::Counter;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running query daemon bound to a local address.
///
/// Dropping the server shuts it down: the accept thread is unblocked by
/// a loopback connection and joined, then every connection thread is
/// joined (each notices the stop flag within one read timeout).
pub struct QueryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl QueryServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `engine`.
    pub fn start(addr: &str, engine: Arc<Engine>) -> io::Result<QueryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("disq-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let engine = Arc::clone(&engine);
                        let stop = Arc::clone(&stop);
                        let handle = std::thread::Builder::new()
                            .name("disq-serve-conn".into())
                            .spawn(move || serve_connection(&engine, stream, &stop));
                        if let Ok(handle) = handle {
                            let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                            // Opportunistically reap finished threads so
                            // a long-lived daemon doesn't accumulate
                            // handles.
                            conns.retain(|h| !h.is_finished());
                            conns.push(handle);
                        }
                    }
                })?
        };
        Ok(QueryServer {
            addr: local,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, then joins every thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = {
            let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection: keep-alive request loop with per-request
/// timeout handling; pipelined requests are answered in order. A panic
/// in a handler is caught and answered with a 500 — the accept thread
/// and other connections never notice.
fn serve_connection(engine: &Engine, mut stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(engine.config().read_timeout));
    let _ = stream.set_nodelay(true);
    let mut unread = Vec::new();
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let outcome = http::read_request(&mut stream, &mut unread);
        let (resp, fatal) = match outcome {
            ReadOutcome::Request(req) => {
                disq_trace::count(Counter::ServeRequests);
                // Request scope: every span (and shared-batch read) this
                // thread opens while handling carries `request_id`.
                let request_id = disq_trace::span::next_request_id();
                let _req_scope = disq_trace::span::enter_request(request_id);
                // An engine that can dump a slow request keeps what this
                // thread emits for it; the dump is that slice.
                let capture = engine
                    .config()
                    .slow_dir
                    .is_some()
                    .then(disq_trace::Capture::start);
                let questions_before = disq_trace::span::thread_questions();
                let started = Instant::now();
                let (resp, meta) = {
                    // Closed inside the capture, so a dump holds the
                    // request's `span_end`.
                    let span = disq_trace::span!("request", "{} {}", req.method, req.path);
                    let out =
                        std::panic::catch_unwind(AssertUnwindSafe(|| http::handle(engine, &req)))
                            .unwrap_or_else(|_| {
                                let mut r =
                                    Response::error(500, "internal error (handler panicked)");
                                r.close = true;
                                (r, RequestMeta::default())
                            });
                    drop(span);
                    out
                };
                let trace = capture.map(disq_trace::Capture::finish).unwrap_or_default();
                engine.observe_request(&RequestRecord {
                    request_id,
                    route: &req.path,
                    attribute: meta.attribute.as_deref(),
                    status: resp.status,
                    latency_us: started.elapsed().as_micros() as u64,
                    questions: disq_trace::span::thread_questions()
                        .saturating_sub(questions_before),
                    plan: meta.plan,
                    coalesce_width: disq_trace::span::take_coalesce_width(),
                    trace: &trace,
                });
                let fatal = resp.close;
                (resp, fatal)
            }
            ReadOutcome::Closed | ReadOutcome::IdleTimeout => break,
            ReadOutcome::Timeout => {
                disq_trace::count(Counter::ServeRequests);
                (Response::error(408, "request read timed out"), true)
            }
            ReadOutcome::TooLarge => {
                disq_trace::count(Counter::ServeRequests);
                (Response::error(413, "request exceeds size limits"), true)
            }
            ReadOutcome::Malformed(reason) => {
                disq_trace::count(Counter::ServeRequests);
                (Response::error(400, &reason), true)
            }
        };
        if resp.status >= 400 {
            disq_trace::count(Counter::ServeErrors);
        }
        let mut resp = resp;
        resp.close = resp.close || fatal;
        if http::write_response(&mut stream, &resp).is_err() || resp.close {
            break;
        }
    }
}
