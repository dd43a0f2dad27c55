//! Property tests for the state-file ingest path: arbitrary documents must
//! round-trip exactly, and the XML layer must survive hostile text.

use bce_statefile::{
    envelope, open_envelope, req_attr, CheckpointStore, ClientStateDoc, CodecError, StoreError,
    XmlNode,
};
use bce_types::{
    AppClass, DailyWindow, EstErrorModel, Hardware, Preferences, ProcType, ProjectSpec,
    ResourceUsage, SimDuration,
};
use proptest::prelude::*;

fn text_strategy() -> impl Strategy<Value = String> {
    // Includes XML-special characters to exercise escaping.
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('0'),
            Just(' '),
            Just('&'),
            Just('<'),
            Just('>'),
            Just('"'),
            Just('\''),
            Just('é'),
        ],
        0..24,
    )
    .prop_map(|cs| cs.into_iter().collect::<String>().trim().to_string())
}

/// Parse through the public envelope reader: the XML parser runs first,
/// then the root is checked to be a version-1 `<t>` envelope.
fn parse_xml(src: &str) -> Result<XmlNode, CodecError> {
    open_envelope(src, "t", 1).map(|(_, root)| root)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// Any text content survives escape → render → parse.
    #[test]
    fn xml_text_roundtrip(text in text_strategy()) {
        let mut node = envelope("t", 1);
        node.text = text.clone();
        let rendered = node.render();
        let parsed = parse_xml(&rendered).unwrap();
        prop_assert_eq!(parsed.text, text);
    }

    /// Attribute values survive the same cycle.
    #[test]
    fn xml_attr_roundtrip(value in text_strategy()) {
        let mut node = envelope("t", 1);
        node.attrs.push(("k".to_string(), value.clone()));
        let parsed = parse_xml(&node.render()).unwrap();
        prop_assert_eq!(req_attr(&parsed, "k").ok(), Some(value.as_str()));
    }

    /// Arbitrary well-formed documents round-trip structurally.
    #[test]
    fn doc_roundtrip(
        ncpus in 1u32..16,
        fpops in 1e8f64..1e10,
        gpus in 0u32..3,
        nprojects in 1usize..5,
        runtime in 10.0f64..1e5,
        slack in 1.1f64..100.0,
        cv in 0.0f64..0.5,
        share in 1.0f64..1000.0,
        buf_days in 0.001f64..2.0,
        window in proptest::option::of((0u8..24, 0u8..24)),
        on_frac in 0.0f64..1.0,
        seed in any::<u64>(),
        gpu_app in any::<bool>(),
        no_checkpoint in any::<bool>(),
        est_err in 0usize..3,
    ) {
        let mut hw = Hardware::cpu_only(ncpus, fpops);
        if gpus > 0 {
            hw = hw.with_group(ProcType::NvidiaGpu, gpus, fpops * 12.0);
        }
        let mut prefs = Preferences {
            work_buf_min: SimDuration::from_days(buf_days),
            ..Default::default()
        };
        if let Some((s, e)) = window {
            if s != e {
                prefs.compute_window = Some(DailyWindow::new(s as f64, e as f64));
            }
        }
        let mut projects = Vec::new();
        for i in 0..nprojects {
            let mut app = AppClass::cpu(
                i as u32 * 2,
                SimDuration::from_secs(runtime),
                SimDuration::from_secs(runtime * slack),
            )
            .with_cv(cv);
            if no_checkpoint {
                app = app.with_checkpoint(None);
            }
            app = app.with_est_error(match est_err {
                0 => EstErrorModel::Exact,
                1 => EstErrorModel::Systematic { factor: 2.0 },
                _ => EstErrorModel::LogNormal { sigma: 0.25 },
            });
            let mut p = ProjectSpec::new(i as u32, format!("proj{i}"), share).with_app(app);
            if gpu_app && gpus > 0 {
                p = p.with_app(AppClass {
                    id: bce_types::AppId(i as u32 * 2 + 1),
                    name: format!("gpu{i}"),
                    usage: ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1),
                    runtime_mean: SimDuration::from_secs(runtime / 3.0),
                    runtime_cv: cv,
                    est_error: EstErrorModel::Exact,
                    latency_bound: SimDuration::from_secs(runtime * slack),
                    checkpoint_period: Some(SimDuration::from_secs(120.0)),
                    working_set_bytes: 2e8,
                    input_bytes: 1e6,
                    output_bytes: 2e5,
                    weight: 1.5,
                    supply: None,
                });
            }
            projects.push(p);
        }
        let doc = ClientStateDoc {
            hardware: hw,
            prefs,
            projects,
            initial_queue: Vec::new(),
            on_frac,
            active_frac: on_frac / 2.0,
            cycle_mean: SimDuration::from_secs(3600.0),
            seed,
        };
        let xml = doc.render();
        let back = ClientStateDoc::parse_str(&xml).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// The parser never panics on arbitrary input — it returns Ok or Err.
    #[test]
    fn xml_parser_total(input in "\\PC{0,200}") {
        let _ = parse_xml(&input);
        let _ = ClientStateDoc::parse_str(&input);
    }

    /// Nesting bombs (balanced or not) are typed errors, never a stack
    /// overflow — an overflow would abort an ingesting daemon worker.
    #[test]
    fn deep_nesting_is_total(depth in 0usize..4096, closes in 0usize..4096) {
        let input = format!("{}{}", "<x>".repeat(depth), "</x>".repeat(closes));
        let _ = parse_xml(&input);
        let _ = ClientStateDoc::parse_str(&input);
    }
}

// ---------------------------------------------------------------------
// Checkpoint-store corruption properties: arbitrary damage to the newest
// generation must fall back to the previous one with an accurate
// RecoveryReport — never a panic, never a silent restart from scratch.

static STORE_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn scratch_store() -> (std::path::PathBuf, CheckpointStore) {
    let n = STORE_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bce-prop-store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::with_real_io(dir.join("state.ckpt"), 3);
    (dir, store)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// Truncate, bit-flip, or zero-fill the newest generation at an
    /// arbitrary position: if the bytes actually changed, the store
    /// opens the previous generation and reports exactly one rejected
    /// generation; if the damage was a no-op, it opens the newest.
    /// Wrecking every generation afterwards must yield the typed
    /// `NoValidGeneration` error, not an `Ok` that forgets history.
    #[test]
    fn corrupted_newest_generation_falls_back(
        kind in 0usize..3,
        pos in 0usize..4096,
        span in 1usize..96,
        bit in 0u32..8,
    ) {
        let (dir, store) = scratch_store();
        for i in 1..=3u32 {
            store.write(format!("generation payload {i}").as_bytes()).unwrap();
        }
        let gens = store.generations_on_disk().unwrap();
        prop_assert_eq!(gens.len(), 3);
        let newest = *gens.last().unwrap();
        let prev = gens[gens.len() - 2];
        let path = store.generation_path(newest);
        let original = std::fs::read(&path).unwrap();

        let mut bytes = original.clone();
        let i = pos % bytes.len();
        match kind {
            0 => bytes.truncate(i), // i < len: strictly shorter
            1 => bytes[i] ^= 1 << bit,
            _ => {
                let end = (i + span).min(bytes.len());
                bytes[i..end].fill(0);
            }
        }
        let damaged = bytes != original;
        std::fs::write(&path, &bytes).unwrap();

        let (payload, report) = store.read_latest().unwrap();
        if damaged {
            // "opened generation <prev> after rejecting gen <newest> (<reason>)",
            // with exactly one rejected generation and a non-empty reason.
            let described = report.describe();
            let head = format!("opened generation {prev} after rejecting gen {newest} (");
            prop_assert!(described.starts_with(&head), "{}", described);
            prop_assert!(described.len() > head.len() + 1, "{}", described);
            prop_assert!(!described.contains("), gen "), "{}", described);
            prop_assert!(report.recovered());
            prop_assert_eq!(payload, b"generation payload 2".to_vec());
        } else {
            prop_assert_eq!(report.describe(), format!("opened generation {newest}"));
            prop_assert!(!report.recovered());
        }

        // Wreck every generation: the store must refuse to guess.
        for &g in &gens {
            let keep = bytes.len().min(8);
            std::fs::write(store.generation_path(g), &bytes[..keep]).unwrap();
        }
        match store.read_latest() {
            Err(StoreError::NoValidGeneration { rejected }) => {
                prop_assert_eq!(rejected.len(), gens.len());
            }
            other => prop_assert!(false, "expected NoValidGeneration, got {:?}", other.map(|(_, r)| r)),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
