//! Zoo-wide end-to-end serving test: every index of the study is built,
//! snapshotted, booted into an in-process `hydra-serve` server, and
//! queried over real TCP through concurrent connections — and every served
//! answer must be **byte-identical** to the offline path (per-query
//! `search` / `run_workload` on an index loaded from the same snapshot):
//! same neighbors, bit-identical distances, same workload accuracy.
//!
//! This is the acceptance contract of PR 4: a client cannot tell whether
//! its answers were computed by the paper's offline harness or by the
//! micro-batching server, except by how fast they arrive.
//!
//! The snapshot directory comes from [`common::in_memory_zoo`] — built
//! once per process and shared read-only, exactly as `fig3_inmemory
//! --save-index` lays a directory out.

mod common;

use std::time::Duration;

use hydra_serve::{boot_from_dir, ServeClient, Server, ServerConfig, ServerHandle};

#[test]
fn every_index_in_the_zoo_serves_byte_identical_answers() {
    let zoo = common::in_memory_zoo();
    let (dir, data) = (&zoo.dir, &zoo.data);
    let seed = 9;

    // Boot the server from the directory; keep an offline twin loaded from
    // the *same* snapshots (the persist contract makes it bit-identical to
    // what the server serves).
    let registry = hydra::standard_registry(hydra::StorageConfig::in_memory(), seed);
    let booted = boot_from_dir(dir, &registry).unwrap();
    assert_eq!(booted.indexes.len(), 8, "the whole zoo must boot");
    let offline = boot_from_dir(dir, &registry).unwrap();
    let handle: ServerHandle = Server::spawn(
        booted.indexes,
        "127.0.0.1:0",
        ServerConfig {
            batch_window: Duration::from_millis(2),
            max_batch: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // The server's own listing agrees with the offline twin.
    let mut control = ServeClient::connect(addr).unwrap();
    let infos = control.list_indexes().unwrap();
    assert_eq!(infos.len(), 8);
    for (info, served) in infos.iter().zip(offline.indexes.iter()) {
        assert_eq!(info.name, served.name);
        assert_eq!(info.method, served.index.name());
        assert_eq!(info.capabilities(), {
            let mut caps = served.index.capabilities();
            caps.representation = hydra::Representation::Raw; // not on the wire
            caps
        });
    }

    let workload = hydra::data::noisy_queries(data, 12, &[0.0, 0.2], 77);
    let truth = hydra::data::ground_truth(data, &workload, common::K);

    for served in &offline.indexes {
        let whole = common::Variant::of(served.index.name());
        for params in &common::settings(served.index.capabilities(), &whole) {
            let answers = common::replay(addr, &served.name, params, &workload, 3);
            // Byte identity against the offline path, query by query.
            for (q, query) in workload.iter().enumerate() {
                let offline_answer = served.index.search(query, params).unwrap();
                let context = format!("{} {params:?} query {q}", served.name);
                common::assert_same_neighbors(&context, &answers[q], &offline_answer.neighbors);
            }
            // And the workload-level accuracy equals the offline runner's.
            let offline_report =
                hydra::eval::run_workload(served.index.as_ref(), &workload, &truth, params);
            assert_eq!(
                common::accuracy(answers.iter().map(Vec::as_slice), &truth),
                offline_report.accuracy,
                "{} {params:?}: workload accuracy drifted between serving and offline",
                served.name
            );
        }
    }

    control.shutdown().unwrap();
    drop(control);
    let stats = handle.join();
    // 8 methods; ng for all, exact for 3 (DSTree, iSAX2+, VA+file), δ-ε
    // for 5 (those three + SRS + QALSH), 12 queries each.
    assert_eq!(stats.queries, (8 + 3 + 5) as u64 * 12);
    assert!(stats.batch_calls >= 1 && stats.ticks >= 1);
}
