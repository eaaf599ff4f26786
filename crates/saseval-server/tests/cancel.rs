//! Job cancellation end to end (ISSUE 9 satellite): `cancel` control
//! lines, queued-job aborts, the never-populates-the-cache guarantee,
//! and the detach-keeps-the-job-alive-for-others semantics — including
//! the races around completion, written tolerantly where the protocol
//! itself is racy by design.

mod common;

use common::stat;
use saseval_server::protocol::str_field;
use saseval_server::{Client, Server, ServerConfig};

fn fuzz_job(iterations: usize, seed: u64) -> String {
    format!(
        r#"{{"Fuzz":{{"scenario":{{"Keyless":{{"controls":"None","horizon_ms":300,"attack_at_ms":100}}}},"iterations":{iterations},"seed":{seed}}}}}"#
    )
}

/// Submits `job` raw under `id` and reads frames until the first
/// `progress` — at which point the job is executing on a worker (the
/// fuzzer samples throughput every 256 inputs, long before a long job
/// finishes).
fn submit_until_running(client: &mut Client, id: &str, job: &str) {
    client.send_line(&format!("{{\"id\":\"{id}\",\"job\":{job}}}")).expect("send");
    loop {
        let frame = client.read_frame().expect("read").expect("open");
        match str_field(&frame, "event") {
            Some("accepted") => {}
            Some("progress") => return,
            other => panic!("unexpected frame while waiting for progress: {other:?}"),
        }
    }
}

/// Reads frames until the terminal frame (`done`, `cancelled` or
/// `error`) for `id`, returning its event name and, for `done`, the
/// cache tier.
fn read_terminal(client: &mut Client, id: &str) -> (String, Option<String>) {
    loop {
        let frame = client.read_frame().expect("read").expect("open");
        if str_field(&frame, "id") != Some(id) {
            continue;
        }
        match str_field(&frame, "event") {
            Some("accepted") | Some("progress") => {}
            Some(event @ ("done" | "cancelled" | "error")) => {
                return (event.to_owned(), str_field(&frame, "cache").map(str::to_owned));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// A job cancelled while it sits in the queue never executes and never
/// populates the cache: with one worker occupied by a long job, a
/// queued job that is cancelled and then resubmitted comes back as a
/// fresh `"miss"` — there is nothing cached to serve it from.
#[test]
fn cancelled_queued_job_never_executes_or_caches() {
    let server = Server::start(ServerConfig { workers: 1, ..Default::default() }).expect("bind");

    // Occupy the only worker.
    let mut occupant = Client::connect(&server.addr()).expect("connect");
    submit_until_running(&mut occupant, "long", &fuzz_job(20_000, 1));

    // Queue a second job behind it, then cancel it before it can start.
    let mut client = Client::connect(&server.addr()).expect("connect");
    let queued_job = fuzz_job(64, 2);
    client.send_line(&format!("{{\"id\":\"q\",\"job\":{queued_job}}}")).expect("send");
    let (event, _) = {
        // First frame is the acceptance; then the cancel round trip.
        let frame = client.read_frame().expect("read").expect("open");
        assert_eq!(str_field(&frame, "event"), Some("accepted"));
        client.cancel("q").expect("cancel");
        read_terminal(&mut client, "q")
    };
    assert_eq!(event, "cancelled");

    // Resubmitting the cancelled spec is a miss: the aborted instance
    // left no cache entry behind.
    let outcome = client.submit("q2", &queued_job).expect("resubmit");
    assert_eq!(outcome.cache, "miss", "cancelled jobs never populate the cache");

    // Let the occupant finish, then check the counters: one cancel, and
    // exactly two executions (the long job and the resubmission).
    let (event, tier) = read_terminal(&mut occupant, "long");
    assert_eq!(event, "done");
    assert_eq!(tier.as_deref(), Some("miss"));
    assert_eq!(stat(&mut client, "cancelled"), 1);
    assert_eq!(stat(&mut client, "executed"), 2);
    server.shutdown();
    server.join();
}

/// Cancelling after the job completed — or with an id that was never
/// submitted — is an `error` frame, and the connection stays usable.
#[test]
fn cancel_after_done_or_with_unknown_id_is_an_error() {
    let server = Server::start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let job = fuzz_job(24, 3);
    client.submit("a", &job).expect("fresh run");

    client.cancel("a").expect("cancel send");
    let (event, _) = read_terminal(&mut client, "a");
    assert_eq!(event, "error", "the job already completed");

    client.cancel("never-submitted").expect("cancel send");
    let (event, _) = read_terminal(&mut client, "never-submitted");
    assert_eq!(event, "error");

    // Still usable afterwards.
    let again = client.submit("b", &job).expect("cached run");
    assert_eq!(again.cache, "memory");
    server.shutdown();
    server.join();
}

/// A coalesced waiter that cancels detaches *itself* only: the
/// execution keeps running for the first submitter, completes normally
/// and populates the cache.
#[test]
fn detached_waiter_keeps_the_job_alive_for_others() {
    let server = Server::start(ServerConfig { workers: 1, ..Default::default() }).expect("bind");
    let job = fuzz_job(20_000, 4);

    let mut first = Client::connect(&server.addr()).expect("connect");
    submit_until_running(&mut first, "keep", &job);

    // Second submission coalesces onto the running job, then bails out.
    let mut second = Client::connect(&server.addr()).expect("connect");
    second.send_line(&format!("{{\"id\":\"bail\",\"job\":{job}}}")).expect("send");
    let frame = second.read_frame().expect("read").expect("open");
    assert_eq!(str_field(&frame, "event"), Some("accepted"));
    second.cancel("bail").expect("cancel");
    // The cancel may race the job's completion: either the waiter
    // detached in time (`cancelled`) or its done frame was already
    // queued (`done` first, then the cancel is an `error`).
    let (event, _) = read_terminal(&mut second, "bail");
    assert!(event == "cancelled" || event == "done", "unexpected terminal {event}");
    if event == "done" {
        // The cancel itself then failed; drain its error frame.
        let (event, _) = read_terminal(&mut second, "bail");
        assert_eq!(event, "error");
    }

    // The first submitter still gets the fresh result…
    let (event, tier) = read_terminal(&mut first, "keep");
    assert_eq!(event, "done");
    assert_eq!(tier.as_deref(), Some("miss"));
    // …and the completed job populated the cache for everyone.
    let outcome = second.submit("later", &job).expect("cached run");
    assert_eq!(outcome.cache, "memory");
    server.shutdown();
    server.join();
}

/// Cancelling the sole waiter mid-run aborts the execution without
/// wedging the server: the terminal frame is `cancelled` (or, if
/// completion won the race, the cancel is an `error`), and unrelated
/// jobs keep working afterwards.
#[test]
fn mid_run_cancel_of_the_sole_waiter_leaves_the_server_usable() {
    let server = Server::start(ServerConfig { workers: 1, ..Default::default() }).expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    submit_until_running(&mut client, "doomed", &fuzz_job(20_000, 5));
    client.cancel("doomed").expect("cancel");
    let (event, _) = read_terminal(&mut client, "doomed");
    assert!(event == "cancelled" || event == "done", "unexpected terminal {event}");
    if event == "cancelled" {
        assert_eq!(stat(&mut client, "cancelled"), 1);
    } else {
        // The cancel itself then failed; drain its error frame.
        let (event, _) = read_terminal(&mut client, "doomed");
        assert_eq!(event, "error");
    }

    // A different job on the same connection still completes (queued
    // behind the cancelled execution, whose result the worker discards
    // before the cache insert).
    let outcome = client.submit("next", &fuzz_job(24, 6)).expect("follow-up job");
    assert_eq!(outcome.cache, "miss");
    server.shutdown();
    server.join();
}
