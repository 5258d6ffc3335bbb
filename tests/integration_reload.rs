//! Hot-reload fault suite: swapping a grown snapshot directory into a
//! running `hydra-serve` server must lose nothing and mix nothing.
//!
//! The serving contract under reload:
//!
//! * no connection is dropped — clients pipelining queries across the
//!   swap receive every answer;
//! * every answer is computed entirely against one epoch, and per
//!   connection the observed epoch is monotone (old… then new, never
//!   interleaved back);
//! * a shutdown arriving while a (slow) reload is in flight still drains
//!   cleanly: the reload completes, its ack flushes, and `join` returns.
//!
//! The swap itself reuses the streaming-ingest story end to end: the
//! "new" directory is the old one re-saved after the dataset grew, so the
//! reloaded zoo serves series the booted zoo had never seen.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use hydra::prelude::*;
use hydra::Dataset;
use hydra_serve::{
    boot_from_dir, Reloader, Request, ResponseBody, ServeClient, Server, ServerConfig,
};

use common::head;
/// The zoo's on-disk VA+file row, typed: what `standard_registry` loads.
fn vafile_config(seed: u64) -> hydra::VaPlusFileConfig {
    hydra::VaPlusFileConfig {
        storage: hydra::StorageConfig::on_disk(),
        seed,
        ..Default::default()
    }
}

/// Saves the one-method snapshot directory the tests boot and reload:
/// `walk.data.snap` + `walk-vafile.snap` over `data`.
fn save_dir(dir: &std::path::Path, data: &Dataset, config: hydra::VaPlusFileConfig) {
    hydra::persist::dataset::save_dataset(data, &dir.join("walk.data.snap")).unwrap();
    VaPlusFile::build(data, config).unwrap().save(&dir.join("walk-vafile.snap")).unwrap();
}

#[test]
fn hot_reload_under_live_pipelined_connections_drops_nothing_and_never_mixes_epochs() {
    let seed = 5;
    let data = hydra::data::random_walk(260, 32, 3131);
    let head_data = head(&data, 200);
    let config = vafile_config(seed);
    let registry = hydra::standard_registry(hydra::StorageConfig::on_disk(), seed);
    let dir = common::temp_dir("reload-live");
    save_dir(&dir, &head_data, config);

    // The probe query is the *last* series of the grown collection: only
    // the post-reload epoch contains it, so each answer's bit pattern
    // tells exactly which epoch computed it.
    let probe: Vec<f32> = data.series(data.len() - 1).to_vec();
    let params = SearchParams::exact(1);
    let old_truth = VaPlusFile::build(&head_data, config)
        .unwrap()
        .search(&probe, &params)
        .unwrap()
        .neighbors;
    let new_truth = VaPlusFile::build(&data, config)
        .unwrap()
        .search(&probe, &params)
        .unwrap()
        .neighbors;
    assert_ne!(
        (old_truth[0].index, old_truth[0].distance.to_bits()),
        (new_truth[0].index, new_truth[0].distance.to_bits()),
        "the probe must distinguish the epochs"
    );

    let booted = boot_from_dir(&dir, &registry).unwrap();
    let reload_dir = dir.clone();
    let reloader: Reloader = Box::new(move || {
        boot_from_dir(&reload_dir, &registry)
            .map(|report| report.indexes)
            .map_err(|e| e.to_string())
    });
    let handle = Server::spawn_with_metrics(
        booted.indexes,
        "127.0.0.1:0",
        ServerConfig {
            batch_window: Duration::from_millis(2),
            max_batch: 8,
            ..ServerConfig::default()
        },
        Some(reloader),
        hydra_serve::MetricsRegistry::new(),
    )
    .unwrap();
    let addr = handle.local_addr();

    // 3 connections pipeline bursts of probes across the swap; the main
    // thread rewrites the directory mid-flight and triggers the reload.
    // Each connection keeps bursting until it has run 3 whole bursts that
    // were *sent after the reload was acknowledged* — those must be
    // answered entirely by the new epoch.
    const BURST: usize = 8;
    let swapped = AtomicUsize::new(0);
    let classify = |neighbors: &[hydra::Neighbor]| -> &'static str {
        let got = (neighbors[0].index, neighbors[0].distance.to_bits());
        if got == (old_truth[0].index, old_truth[0].distance.to_bits()) {
            "old"
        } else if got == (new_truth[0].index, new_truth[0].distance.to_bits()) {
            "new"
        } else {
            panic!("torn answer: {neighbors:?} matches neither epoch");
        }
    };
    let total_answered = std::thread::scope(|scope| {
        let mut conns = Vec::new();
        for c in 0..3 {
            let (probe, swapped, classify) = (&probe, &swapped, &classify);
            conns.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let mut answered = 0usize;
                let mut saw_new = false;
                let mut rounds_after_ack = 0usize;
                let mut round = 0usize;
                loop {
                    // Read the flag *before* sending: if the swap was
                    // already acknowledged, every query of this burst is
                    // enqueued after it and must answer from the new epoch.
                    let sent_after_ack = swapped.load(Ordering::SeqCst) > 0;
                    for i in 0..BURST {
                        client
                            .send(&Request::Query {
                                request_id: (round * BURST + i + 1) as u64,
                                index: "walk-vafile".into(),
                                params,
                                query: probe.clone(),
                            })
                            .unwrap();
                    }
                    for _ in 0..BURST {
                        let response = client.recv().unwrap();
                        let ResponseBody::Answer { neighbors } = response.body else {
                            panic!("connection {c}: query failed: {:?}", response.body);
                        };
                        answered += 1;
                        match classify(&neighbors) {
                            "new" => saw_new = true,
                            "old" => {
                                assert!(
                                    !saw_new,
                                    "connection {c} round {round}: epoch went backwards"
                                );
                                assert!(
                                    !sent_after_ack,
                                    "connection {c} round {round}: stale epoch after ack"
                                );
                            }
                            _ => unreachable!(),
                        }
                    }
                    round += 1;
                    if sent_after_ack {
                        rounds_after_ack += 1;
                        if rounds_after_ack >= 3 {
                            break;
                        }
                    }
                }
                assert!(saw_new, "connection {c} never reached the new epoch");
                assert_eq!(answered, round * BURST, "connection {c} lost answers");
                answered
            }));
        }
        // Let the connections get some old-epoch rounds in, then grow the
        // directory on disk and swap it live.
        std::thread::sleep(Duration::from_millis(30));
        save_dir(&dir, &data, config);
        let mut control = ServeClient::connect(addr).unwrap();
        let epoch = control.reload().unwrap();
        assert_eq!(epoch, 1, "first reload must land epoch 1");
        swapped.store(1, Ordering::SeqCst);
        // The control connection itself sees the grown zoo immediately.
        let infos = control.list_indexes().unwrap();
        assert_eq!(infos[0].num_series as usize, data.len());
        let answered: usize = conns
            .into_iter()
            .map(|conn| conn.join().expect("connection thread panicked"))
            .sum();
        control.shutdown().unwrap();
        answered
    });
    let stats = handle.join();
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.queries, total_answered as u64);
}

#[test]
fn shutdown_mid_swap_drains_cleanly_and_still_acks_the_reload() {
    let seed = 5;
    let data = hydra::data::random_walk(120, 32, 4242);
    let config = vafile_config(seed);
    let registry = hydra::standard_registry(hydra::StorageConfig::on_disk(), seed);
    let dir = common::temp_dir("reload-shutdown");
    save_dir(&dir, &data, config);
    let booted = boot_from_dir(&dir, &registry).unwrap();
    // A deliberately slow reload source, so the shutdown genuinely lands
    // mid-swap.
    let reload_dir = dir.clone();
    let reloader: Reloader = Box::new(move || {
        std::thread::sleep(Duration::from_millis(300));
        boot_from_dir(&reload_dir, &registry)
            .map(|report| report.indexes)
            .map_err(|e| e.to_string())
    });
    let handle = Server::spawn_with_metrics(
        booted.indexes,
        "127.0.0.1:0",
        ServerConfig::default(),
        Some(reloader),
        hydra_serve::MetricsRegistry::new(),
    )
    .unwrap();
    let addr = handle.local_addr();
    let mut reloading = ServeClient::connect(addr).unwrap();
    reloading.send(&Request::Reload { request_id: 7 }).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let mut control = ServeClient::connect(addr).unwrap();
    control.shutdown().unwrap();
    // The in-flight reload completes, its ack flushes before the read
    // half closes, and join returns instead of hanging.
    let response = reloading.recv().unwrap();
    assert_eq!(response.request_id, 7);
    let ResponseBody::ReloadAck { epoch } = response.body else {
        panic!("expected ReloadAck, got {:?}", response.body);
    };
    assert_eq!(epoch, 1);
    let stats = handle.join();
    assert_eq!(stats.reloads, 1);
}

#[test]
fn a_failed_reload_keeps_serving_the_current_epoch() {
    let seed = 5;
    let data = hydra::data::random_walk(100, 32, 5353);
    let config = vafile_config(seed);
    let registry = hydra::standard_registry(hydra::StorageConfig::on_disk(), seed);
    let dir = common::temp_dir("reload-fail");
    save_dir(&dir, &data, config);
    let booted = boot_from_dir(&dir, &registry).unwrap();
    let reload_dir = dir.clone();
    let reloader: Reloader = Box::new(move || {
        boot_from_dir(&reload_dir, &registry)
            .map(|report| report.indexes)
            .map_err(|e| e.to_string())
    });
    let handle = Server::spawn_with_metrics(
        booted.indexes,
        "127.0.0.1:0",
        ServerConfig::default(),
        Some(reloader),
        hydra_serve::MetricsRegistry::new(),
    )
    .unwrap();
    let addr = handle.local_addr();
    let mut client = ServeClient::connect(addr).unwrap();
    // Damage the directory: the reload must refuse and leave epoch 0
    // serving, not tear down the zoo it already has.
    let snap = dir.join("walk-vafile.snap");
    let pristine = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &pristine[..pristine.len() / 2]).unwrap();
    let err = client.reload().unwrap_err();
    assert!(format!("{err}").contains("Unavailable"), "got: {err}");
    let answer = client
        .call(&Request::Query {
            request_id: 9,
            index: "walk-vafile".into(),
            params: SearchParams::exact(3),
            query: data.series(0).to_vec(),
        })
        .unwrap();
    assert!(
        matches!(answer.body, ResponseBody::Answer { .. }),
        "epoch 0 must keep serving after a failed reload: {:?}",
        answer.body
    );
    // Repair and retry: the swap now lands.
    std::fs::write(&snap, &pristine).unwrap();
    assert_eq!(client.reload().unwrap(), 1);
    client.shutdown().unwrap();
    let stats = handle.join();
    assert_eq!(stats.reloads, 1);
}
