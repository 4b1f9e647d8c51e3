//! Untrusted paged files never panic the reader: seeded mutations of a
//! small snapshot's header, live-bitmap length and page directory
//! either fail `PagedStore::open` with a typed [`PagedError`], or open
//! into a store whose pages, materialisation and `balanced` audit each
//! return `Ok` or a typed error.

mod common;

use common::{population, TempPaged};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_store::{PagedError, PagedStore, RowSet};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Where the length-carrying parts of a paged file sit: the magic and
/// header (`0..header_end`), the live-bitmap length
/// (`header_end..header_end + 8`) and the directory with its footer
/// (`directory..`).
struct Layout {
    header_end: usize,
    directory: usize,
}

impl Layout {
    fn of(bytes: &[u8]) -> Self {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let footer = bytes.len() - 16;
        Layout {
            header_end: 16 + u64_at(8),
            directory: u64_at(footer),
        }
    }

    /// A byte offset in a region picked at random: the header, the
    /// live-bitmap length, the directory, or (one time in eight)
    /// anywhere in the file.
    fn target(&self, len: usize, rng: &mut StdRng) -> usize {
        let (start, end) = match rng.gen_range(0..8usize) {
            0..=2 => (0, self.header_end),
            3 => (self.header_end, self.header_end + 8),
            4..=6 => (self.directory, len),
            _ => (0, len),
        };
        // Earlier truncations and insertions may have moved the region.
        let end = end.min(len);
        if start >= end {
            return rng.gen_range(0..len);
        }
        rng.gen_range(start..end)
    }
}

/// Length-like values worth planting in a field: the edges of the
/// integer types and of the file.
fn edge_value(len: usize, rng: &mut StdRng) -> u64 {
    let len = len as u64;
    match rng.gen_range(0..7usize) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::from(u32::MAX),
        4 => len,
        5 => len.saturating_sub(16),
        _ => rng.next_u64() % (2 * len + 1),
    }
}

/// One to three mutations of `bytes`: bit flips, overwrites (random
/// bytes or an edge value as a little-endian word), truncations and
/// insertions, aimed at the header, the live-bitmap length and the
/// directory.
fn mutate(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let layout = Layout::of(bytes);
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        if out.is_empty() {
            break;
        }
        let at = layout.target(out.len(), rng);
        match rng.gen_range(0..6usize) {
            0 | 1 => out[at] ^= 1 << rng.gen_range(0..8u32),
            2 => {
                let n = rng.gen_range(1..=8usize).min(out.len() - at);
                for byte in &mut out[at..at + n] {
                    *byte = rng.next_u64() as u8;
                }
            }
            3 => {
                let word = edge_value(bytes.len(), rng).to_le_bytes();
                let n = word.len().min(out.len() - at);
                out[at..at + n].copy_from_slice(&word[..n]);
            }
            4 => out.truncate(at),
            _ => {
                let n = rng.gen_range(1..=16usize);
                let inserted: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                out.splice(at..at, inserted);
            }
        }
    }
    out
}

/// Open `path` and, when it opens, read every page, materialise it and
/// audit it; `Err` with the typed error's text when it did not open.
fn exercise(path: &std::path::Path, budget: usize) -> Result<(), String> {
    let store = PagedStore::open(path, budget).map_err(|err: PagedError| err.to_string())?;
    for id in 0..store.directory_len() {
        let _ = store.page(id as u32);
    }
    let _ = store.materialize();
    if let Ok(ctx) = AuditContext::from_paged(&store, AuditConfig::default(), None, None) {
        let _ = Balanced::new(AttributeChoice::Worst).run(&ctx);
    }
    Ok(())
}

#[test]
fn mutated_headers_and_directories_never_panic_the_reader() {
    let (workers, scores) = population(40, 11, false);
    let live = RowSet::from_sorted((0..40).filter(|row| row % 3 != 0).collect());
    let bases: Vec<Vec<u8>> = [None, Some(&live)]
        .into_iter()
        .map(|live| {
            let tmp = TempPaged::write("mutation-base", &workers, &scores, live);
            std::fs::read(&tmp.0).unwrap()
        })
        .collect();
    let target = TempPaged(std::env::temp_dir().join(format!(
        "fairjob-core-test-{}-mutation-case.fjp",
        std::process::id()
    )));
    let mut rng = StdRng::seed_from_u64(0xFA6E_D0C5);
    let (mut opened, mut rejected) = (0, 0);
    for case in 0..10_000 {
        let bytes = mutate(&bases[case % bases.len()], &mut rng);
        std::fs::write(&target.0, &bytes).unwrap();
        let budget = [1, 1 << 16, 1 << 20][rng.gen_range(0..3usize)];
        match catch_unwind(AssertUnwindSafe(|| exercise(&target.0, budget))) {
            Err(_) => panic!("case {case}: the reader panicked on {} bytes", bytes.len()),
            Ok(Ok(())) => opened += 1,
            Ok(Err(reason)) => {
                assert!(!reason.is_empty(), "case {case}");
                rejected += 1;
            }
        }
    }
    assert!(
        opened > 0 && rejected > 0,
        "{opened} opened, {rejected} rejected"
    );
}
