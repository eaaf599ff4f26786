//! The `Scenario` job end to end (ISSUE 10): a coverage-guided scenario
//! search submitted over TCP is cacheable (miss → hit, byte-identical),
//! canonicalized (terse and spelled-out specs share one cache entry),
//! coalesced (N identical concurrent submissions execute once) and
//! cancellable mid-search without corrupting the cache.

mod common;

use common::stat;
use saseval_server::protocol::str_field;
use saseval_server::{Client, JobOutcome, Server, ServerConfig};

/// A terse scenario job: the search space, shard count and per-spec
/// evaluation depth are all left to the canonicalizer's defaults.
fn scenario_job(budget: usize, seed: u64) -> String {
    format!(r#"{{"Scenario":{{"budget":{budget},"seed":{seed}}}}}"#)
}

/// Submits `job` raw under `id` and reads frames until the first
/// `progress` — the search publishes its throughput gauge once per
/// scenario evaluation, long before a large budget is exhausted.
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

/// A fresh search is a `"miss"`; resubmitting the same spec is a memory
/// hit with byte-identical payload bytes. A spelled-out submission that
/// canonicalizes to the same job — explicit default space, `shards: 1`,
/// the default evaluation depth — lands on the same cache entry.
#[test]
fn scenario_miss_then_hit_is_byte_identical_and_canonicalized() {
    let server = Server::start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let job = scenario_job(8, 42);

    let fresh = client.submit("a", &job).expect("fresh run");
    assert_eq!(fresh.cache, "miss");
    let cached = client.submit("b", &job).expect("cached run");
    assert_eq!(cached.cache, "memory");
    assert_eq!(cached.payload_json, fresh.payload_json, "hit serves the exact cached bytes");
    assert_eq!(cached.key, fresh.key);

    // The payload is a scenario search report over the requested budget.
    let report: serde_json::JsonValue = serde_json::from_str(&fresh.payload_json).expect("json");
    let payload = saseval_server::protocol::map_field(&report, "Scenario").expect("Scenario");
    match saseval_server::protocol::map_field(payload, "budget") {
        Some(serde_json::JsonValue::U64(8)) => {}
        other => panic!("unexpected budget field: {other:?}"),
    }

    // Spelling out what the terse form canonicalizes to reuses the entry.
    let spelled = format!(
        r#"{{"Scenario":{{"space":{space},"budget":8,"seed":42,"shards":1,"eval_iterations":{eval}}}}}"#,
        space = serde_json::to_string(&saseval_fuzz::scenario::ScenarioSpace::keyless_default())
            .expect("space json"),
        eval = saseval_fuzz::scenario::DEFAULT_EVAL_ITERATIONS,
    );
    let explicit = client.submit("c", &spelled).expect("spelled-out run");
    assert_eq!(explicit.cache, "memory", "canonicalization maps both spellings to one key");
    assert_eq!(explicit.key, fresh.key);
    assert_eq!(explicit.payload_json, fresh.payload_json);

    // A different shard count is a semantically different job (its own
    // determinism contract), so it is a fresh miss — with the same
    // search results merged in a different partition it may or may not
    // byte-match, but it must not share the cache entry.
    let sharded = client.submit("d", &scenario_job(8, 42).replace("}}", r#","shards":2}}"#));
    let sharded = sharded.expect("sharded run");
    assert_eq!(sharded.cache, "miss");
    assert_ne!(sharded.key, fresh.key);
    server.shutdown();
    server.join();
}

/// N concurrent identical scenario submissions execute exactly once:
/// every waiter gets byte-identical bytes whether it coalesced onto the
/// in-flight search or hit the cache it filled.
#[test]
fn concurrent_identical_scenario_submissions_coalesce() {
    const CLIENTS: usize = 6;
    let server = Server::start(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let job = scenario_job(160, 7);

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

    assert_eq!(outcomes.len(), CLIENTS);
    for outcome in &outcomes {
        assert_eq!(outcome.payload_json, outcomes[0].payload_json);
        assert_eq!(outcome.key, outcomes[0].key);
    }
    let mut client = Client::connect(&addr).expect("stats connect");
    assert_eq!(stat(&mut client, "executed"), 1, "single-flight execution");
    assert_eq!(stat(&mut client, "jobs"), CLIENTS as u64);
    server.shutdown();
    server.join();
}

/// Cancelling a scenario search mid-run leaves the cache consistent: the
/// aborted search never populates it (the resubmission is a fresh miss)
/// and the server keeps serving jobs afterwards.
#[test]
fn mid_search_cancel_leaves_the_cache_consistent() {
    let server = Server::start(ServerConfig { workers: 1, ..Default::default() }).expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let job = scenario_job(600, 11);
    submit_until_running(&mut client, "doomed", &job);
    client.cancel("doomed").expect("cancel");
    let (event, _) = read_terminal(&mut client, "doomed");
    assert!(event == "cancelled" || event == "done", "unexpected terminal {event}");
    if event == "done" {
        // Completion won the race; the cancel itself then failed.
        let (event, _) = read_terminal(&mut client, "doomed");
        assert_eq!(event, "error");
    } else {
        assert_eq!(stat(&mut client, "cancelled"), 1);
        // The aborted search never populates the cache: resubmitting the
        // identical spec is a fresh miss, not a stale hit served from
        // the cancelled instance's discarded result.
        let outcome = client.submit("retry", &job).expect("resubmit");
        assert_eq!(outcome.cache, "miss");
    }

    // Unrelated work still completes on the same connection.
    let outcome = client.submit("next", &scenario_job(4, 12)).expect("follow-up job");
    assert_eq!(outcome.cache, "miss");
    server.shutdown();
    server.join();
}

/// A `Fuzz` or `Scenario` job asking for more than `MAX_SHARDS` shards
/// is answered with an `error` frame and never executes; the connection
/// stays usable for a well-formed job.
#[test]
fn oversized_shard_counts_get_an_error_frame_and_never_execute() {
    use saseval_server::job::MAX_SHARDS;
    let server = Server::start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let over = MAX_SHARDS + 1;
    let jobs = [
        format!(
            r#"{{"Fuzz":{{"scenario":{{"Keyless":{{}}}},"iterations":8,"seed":1,"shards":{over}}}}}"#
        ),
        format!(r#"{{"Scenario":{{"budget":2,"seed":1,"shards":{over}}}}}"#),
    ];
    for (i, job) in jobs.iter().enumerate() {
        let id = format!("over{i}");
        client.send_line(&format!("{{\"id\":\"{id}\",\"job\":{job}}}")).expect("send");
        let frame = client.read_frame().expect("read").expect("open");
        assert_eq!(str_field(&frame, "id"), Some(id.as_str()));
        assert_eq!(str_field(&frame, "event"), Some("error"), "no accepted frame first");
        let message = str_field(&frame, "message").expect("message");
        assert!(message.contains(&over.to_string()), "{message}");
    }
    assert_eq!(stat(&mut client, "executed"), 0);
    assert_eq!(stat(&mut client, "jobs"), 0);

    let bounded =
        jobs[0].replace(&format!(r#""shards":{over}"#), &format!(r#""shards":{MAX_SHARDS}"#));
    let outcome = client.submit("bounded", &bounded).expect("bounded run");
    assert_eq!(outcome.cache, "miss");
    assert_eq!(stat(&mut client, "executed"), 1);
    server.shutdown();
    server.join();
}
