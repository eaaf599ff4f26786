//! The cached-equals-fresh byte-identity property (ISSUE 7 acceptance):
//! for any job spec, the bytes a cache hit serves — from either tier,
//! in-process or over the TCP protocol — are identical to the bytes a
//! fresh computation produces.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use saseval_obs::Obs;
use saseval_server::job::{ControlsPreset, KeylessScenario};
use saseval_server::worker::run_job;
use saseval_server::{
    CacheTier, CampaignJob, Client, FuzzJob, JobSpec, ResultCache, ScenarioSpec, Server,
    ServerConfig, SnapshotStore, SuiteName,
};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let unique = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("saseval-cached-fresh-{}-{unique}", std::process::id()))
}

/// Small, fast jobs: short horizons and few iterations keep each case
/// cheap while still exercising both worlds and both job kinds.
fn small_job_strategy() -> impl Strategy<Value = JobSpec> {
    let preset = prop_oneof![
        Just(ControlsPreset::All),
        Just(ControlsPreset::None),
        Just(ControlsPreset::AuthOnly),
    ];
    let fuzz = (preset, 1usize..32, 0u64..1000, 0usize..3, any::<bool>()).prop_map(
        |(controls, iterations, seed, shards, keyless)| {
            let scenario = if keyless {
                ScenarioSpec::Keyless(KeylessScenario {
                    controls,
                    horizon_ms: 300,
                    attack_at_ms: 100,
                })
            } else {
                ScenarioSpec::Construction(saseval_server::job::ConstructionScenario {
                    controls,
                    horizon_ms: 300,
                    attack_at_ms: 100,
                })
            };
            JobSpec::Fuzz(FuzzJob { scenario, iterations, seed, shards })
        },
    );
    let campaign = (prop_oneof![Just(SuiteName::Jamming), Just(SuiteName::Ad08)], 0u64..100)
        .prop_map(|(suite, seed)| JobSpec::Campaign(CampaignJob { suite, seed }));
    prop_oneof![fuzz.boxed(), campaign.boxed()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fresh → memory hit → disk hit (fresh cache over the same
    /// directory) → fresh recomputation: all four are the same bytes.
    #[test]
    fn every_tier_serves_the_fresh_bytes(spec in small_job_strategy()) {
        let snapshots = SnapshotStore::new();
        let fresh = run_job(spec, &snapshots, &Obs::noop()).to_bytes();
        let key = spec.cache_key();

        let dir = temp_dir();
        let cache = ResultCache::new(4, Some(dir.clone()));
        let inserted = cache.insert(key, &fresh);
        prop_assert_eq!(inserted.payload(), &fresh[..]);
        let (from_memory, tier) = cache.get(key).expect("memory hit");
        prop_assert_eq!(tier, CacheTier::Memory);
        prop_assert_eq!(from_memory.payload(), &fresh[..]);

        // A brand-new cache over the same directory sees only the disk
        // tier — the bytes must still be identical, down to the framed
        // done-frame tail the event loop splices into sockets.
        let reopened = ResultCache::new(4, Some(dir.clone()));
        let (from_disk, tier) = reopened.get(key).expect("disk hit");
        prop_assert_eq!(tier, CacheTier::Disk);
        prop_assert_eq!(from_disk.payload(), &fresh[..]);
        prop_assert_eq!(from_disk.tail(), from_memory.tail());

        let recomputed = run_job(spec, &snapshots, &Obs::noop()).to_bytes();
        prop_assert_eq!(&recomputed, &fresh);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same property end to end over the TCP protocol: a repeat
    /// submission is answered from the cache with an identical payload.
    #[test]
    fn protocol_repeat_is_a_byte_identical_cache_hit(spec in small_job_strategy()) {
        let dir = temp_dir();
        let server = Server::start(ServerConfig {
            cache_dir: Some(dir.clone()),
            prewarm: false,
            ..Default::default()
        })
        .expect("bind");
        let job_json = serde_json::to_string(&spec).expect("specs serialize");
        let mut client = Client::connect(&server.addr()).expect("connect");
        let first = client.submit("first", &job_json).expect("fresh run");
        prop_assert_eq!(&first.cache, "miss");
        let second = client.submit("second", &job_json).expect("cached run");
        prop_assert_ne!(&second.cache, "miss");
        prop_assert_eq!(&second.payload_json, &first.payload_json);
        prop_assert_eq!(&second.key, &first.key);

        // A restarted server over the same cache directory serves the
        // job from disk, still byte-identical.
        server.shutdown();
        server.join();
        let reopened = Server::start(ServerConfig {
            cache_dir: Some(dir.clone()),
            prewarm: false,
            ..Default::default()
        })
        .expect("rebind");
        let mut client = Client::connect(&reopened.addr()).expect("reconnect");
        let third = client.submit("third", &job_json).expect("disk-cached run");
        prop_assert_eq!(&third.cache, "disk");
        prop_assert_eq!(&third.payload_json, &first.payload_json);
        reopened.shutdown();
        reopened.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}
