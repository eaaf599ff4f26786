//! Single-flight coalescing and pipelining properties (ISSUE 9):
//! N concurrent identical submissions execute exactly once and every
//! waiter receives byte-identical bytes; pipelined requests on one
//! connection come back correctly ordered and correlated.

mod common;

use common::stat;
use proptest::prelude::*;
use saseval_server::protocol::str_field;
use saseval_server::{Client, JobOutcome, Server, ServerConfig};

fn fuzz_job(iterations: usize, seed: u64) -> String {
    format!(
        r#"{{"Fuzz":{{"scenario":{{"Keyless":{{"controls":"None","horizon_ms":300,"attack_at_ms":100}}}},"iterations":{iterations},"seed":{seed}}}}}"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N concurrent identical submissions: exactly one execution
    /// (asserted through the server's stats frame), N byte-identical
    /// responses. Whether a given submission coalesced onto the
    /// in-flight job or hit the cache it filled is a race — but the
    /// execution count never exceeds one.
    #[test]
    fn n_concurrent_identical_submissions_execute_once(seed in 0u64..10_000) {
        const CLIENTS: usize = 8;
        let server = Server::start(ServerConfig::default()).expect("bind");
        let addr = server.addr();
        let job = fuzz_job(4_000, seed);

        let outcomes: Vec<JobOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let job = job.clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(&addr).expect("connect");
                        client.submit(&format!("c{i}"), &job).expect("submit")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });

        prop_assert_eq!(outcomes.len(), CLIENTS);
        for outcome in &outcomes {
            prop_assert_eq!(&outcome.payload_json, &outcomes[0].payload_json);
            prop_assert_eq!(&outcome.key, &outcomes[0].key);
        }
        let mut client = Client::connect(&addr).expect("stats connect");
        prop_assert_eq!(stat(&mut client, "executed"), 1);
        prop_assert_eq!(stat(&mut client, "jobs"), CLIENTS as u64);
        server.shutdown();
        server.join();
    }
}

/// K pipelined requests on one connection (all written before any
/// response is read) produce K done frames. Cached requests are
/// answered inline in submission order, so the done frames arrive
/// exactly in request order.
#[test]
fn pipelined_cached_requests_reply_in_submission_order() {
    const K: usize = 16;
    let server = Server::start(ServerConfig::default()).expect("bind");
    let job = fuzz_job(24, 7);
    let mut warm = Client::connect(&server.addr()).expect("connect");
    warm.submit("warm", &job).expect("warm run");

    // Raw pipelining: write all K lines, then read the frame stream and
    // record the order done frames come back in.
    let mut client = Client::connect(&server.addr()).expect("connect");
    for i in 0..K {
        client.send_line(&format!("{{\"id\":\"p{i}\",\"job\":{job}}}")).expect("send");
    }
    let mut done_order = Vec::new();
    while done_order.len() < K {
        let frame = client.read_frame().expect("read").expect("open");
        match str_field(&frame, "event") {
            Some("accepted") | Some("progress") => {}
            Some("done") => {
                done_order.push(str_field(&frame, "id").expect("done has id").to_owned());
                assert_eq!(str_field(&frame, "cache"), Some("memory"));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let expected: Vec<String> = (0..K).map(|i| format!("p{i}")).collect();
    assert_eq!(done_order, expected, "cached done frames preserve submission order");
    server.shutdown();
    server.join();
}

/// A mixed pipeline through [`Client::submit_many`]: identical fresh
/// jobs coalesce onto one execution and every outcome of the batch
/// carries the same payload, correlated back by id.
#[test]
fn submit_many_coalesces_identical_fresh_jobs() {
    const K: usize = 12;
    let server = Server::start(ServerConfig::default()).expect("bind");
    let job = fuzz_job(4_000, 99);
    let ids: Vec<String> = (0..K).map(|i| format!("m{i}")).collect();
    let pairs: Vec<(&str, &str)> = ids.iter().map(|id| (id.as_str(), job.as_str())).collect();
    let mut client = Client::connect(&server.addr()).expect("connect");
    let outcomes = client.submit_many(&pairs).expect("pipeline");
    assert_eq!(outcomes.len(), K);
    for outcome in &outcomes {
        assert_eq!(outcome.payload_json, outcomes[0].payload_json);
    }
    assert_eq!(stat(&mut client, "executed"), 1, "one execution for the batch");
    // All K requests land on one connection before the job can finish,
    // so K−1 of them coalesced onto the in-flight execution.
    assert_eq!(stat(&mut client, "coalesced"), K as u64 - 1);
    server.shutdown();
    server.join();
}
