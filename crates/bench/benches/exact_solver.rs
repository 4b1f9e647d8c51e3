//! Exact-solver arena bench: the zero-allocation solve path against the
//! allocate-per-solve legacy path, on the audit's own histograms.
//!
//! Three claims are *asserted* with real counters and bit comparisons
//! before any timing runs:
//!
//! * **Value safety** — the arena path ([`HistogramDistance::distance_with`]
//!   on a persistent [`SolveScratch`]) is bit-identical to the legacy
//!   per-solve path for every pair, the transportation-simplex oracle
//!   agrees to 1e-9, and a warm-started solve is bit-identical to a cold
//!   one.
//! * **Cache discipline** — after one primed warm-up, twenty repeated
//!   batches cause **zero** new ground-matrix builds (at most one build
//!   per bin grid per process) and every solve is a ground-cache hit;
//!   the steady-state scratch [`SolveScratch::footprint`] stops growing,
//!   so the solve loop no longer touches the allocator.
//! * **Determinism** — value and *all* batch counters (including
//!   `ground_cache_hits` / `scratch_reuses` / `warm_starts`) are
//!   identical for 1, 2, 3 and 8 threads.
//!
//! Finally the ≥2× speedup gate: on the sparse exact-survivor profile
//! (deep partitions, the histograms the bound screen actually sends to
//! the exact solver), a pairwise sweep on the shared scratch must run at
//! least twice as fast as the seed's allocate-per-solve path — the PR-4
//! solver, reproduced in [`seed`] with its original allocation shape
//! (fresh graph per solve, fresh Dijkstra buffers per augmentation) and
//! value-checked against the arena path to 1e-9 before being timed.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_bench::prepare_population;
use fairjob_core::unfairness::{pairwise_emd_batch, BatchValue};
use fairjob_core::{AuditConfig, AuditContext, Partition};
use fairjob_emd::{simplex, GroundCache};
use fairjob_hist::distance::EmdExact;
use fairjob_hist::{BinSpec, Histogram, HistogramDistance, ScratchStats, SolveScratch};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The seed's exact-EMD path, reproduced with its original allocation
/// shape: a fresh residual graph per solve (`Vec<Vec<usize>>` adjacency,
/// per-edge pushes) and fresh `dist`/`prev`/heap buffers per Dijkstra
/// round. This is the baseline the ≥2× speedup gate measures against;
/// its values are checked against the arena path to 1e-9 before any
/// timing runs.
mod seed {
    use fairjob_hist::Histogram;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    const CAP_EPS: f64 = 1e-12;
    const MASS_EPS: f64 = 1e-9;

    struct Edge {
        to: usize,
        cap: f64,
        cost: f64,
    }

    struct ResidualGraph {
        edges: Vec<Edge>,
        adj: Vec<Vec<usize>>,
    }

    #[derive(PartialEq)]
    struct HeapEntry {
        dist: f64,
        node: usize,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl ResidualGraph {
        fn new(n: usize) -> Self {
            ResidualGraph {
                edges: Vec::new(),
                adj: vec![Vec::new(); n],
            }
        }

        fn add_edge(&mut self, from: usize, to: usize, cap: f64, cost: f64) {
            let id = self.edges.len();
            self.edges.push(Edge { to, cap, cost });
            self.edges.push(Edge {
                to: from,
                cap: 0.0,
                cost: -cost,
            });
            self.adj[from].push(id);
            self.adj[to].push(id + 1);
        }

        fn solve(&mut self, source: usize, sink: usize, want: f64) -> f64 {
            let n = self.adj.len();
            let mut potential = vec![0.0f64; n];
            let mut flow = 0.0;
            let mut cost = 0.0;
            while want - flow > CAP_EPS {
                let mut dist = vec![f64::INFINITY; n];
                let mut prev_edge = vec![usize::MAX; n];
                dist[source] = 0.0;
                let mut heap = BinaryHeap::new();
                heap.push(HeapEntry {
                    dist: 0.0,
                    node: source,
                });
                while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
                    if d > dist[u] + CAP_EPS {
                        continue;
                    }
                    for &eid in &self.adj[u] {
                        let e = &self.edges[eid];
                        if e.cap <= CAP_EPS {
                            continue;
                        }
                        let reduced = (e.cost + potential[u] - potential[e.to]).max(0.0);
                        let nd = d + reduced;
                        if nd + CAP_EPS < dist[e.to] {
                            dist[e.to] = nd;
                            prev_edge[e.to] = eid;
                            heap.push(HeapEntry {
                                dist: nd,
                                node: e.to,
                            });
                        }
                    }
                }
                if !dist[sink].is_finite() {
                    break;
                }
                for v in 0..n {
                    if dist[v].is_finite() {
                        potential[v] += dist[v];
                    }
                }
                let mut push = want - flow;
                let mut v = sink;
                while v != source {
                    let eid = prev_edge[v];
                    push = push.min(self.edges[eid].cap);
                    v = self.edges[eid ^ 1].to;
                }
                if push <= CAP_EPS {
                    break;
                }
                let mut v = sink;
                while v != source {
                    let eid = prev_edge[v];
                    self.edges[eid].cap -= push;
                    self.edges[eid ^ 1].cap += push;
                    cost += push * self.edges[eid].cost;
                    v = self.edges[eid ^ 1].to;
                }
                flow += push;
            }
            cost
        }
    }

    /// The seed's `EmdExact::distance`: fresh frequency vectors, fresh
    /// ground positions, `Vec<Vec>` costs, fresh graph, cold solve.
    pub fn emd_distance(a: &Histogram, b: &Histogram) -> f64 {
        let fa = a.frequencies().expect("non-empty histogram");
        let fb = b.frequencies().expect("non-empty histogram");
        let centres = a.spec().centres();
        let srcs: Vec<usize> = (0..fa.len()).filter(|&i| fa[i] > MASS_EPS).collect();
        let dsts: Vec<usize> = (0..fb.len()).filter(|&j| fb[j] > MASS_EPS).collect();
        let (m, n) = (srcs.len(), dsts.len());
        let supply: f64 = srcs.iter().map(|&i| fa[i]).sum();
        let mut g = ResidualGraph::new(m + n + 2);
        let (source, sink) = (m + n, m + n + 1);
        for (si, &i) in srcs.iter().enumerate() {
            g.add_edge(source, si, fa[i], 0.0);
        }
        for (dj, &j) in dsts.iter().enumerate() {
            g.add_edge(m + dj, sink, fb[j], 0.0);
        }
        for (si, &i) in srcs.iter().enumerate() {
            for (dj, &j) in dsts.iter().enumerate() {
                g.add_edge(si, m + dj, f64::INFINITY, (centres[i] - centres[j]).abs());
            }
        }
        g.solve(source, sink, supply)
    }
}

/// The ≥100-partition workload of the pairwise-kernel bench: five of
/// the six attributes pre-split over the standard generated population.
fn partitions(ctx: &AuditContext<'_>) -> Vec<Partition> {
    let attrs = ctx.attributes().to_vec();
    let mut parts = vec![ctx.root()];
    for &a in &attrs[..attrs.len() - 1] {
        parts = parts
            .iter()
            .flat_map(|p| ctx.split(p, a).unwrap_or_else(|| vec![p.clone()]))
            .collect();
    }
    assert!(
        parts.len() >= 100,
        "bench workload must cover >= 100 partitions, got {}",
        parts.len()
    );
    parts
}

/// Histograms with every bin populated, so consecutive pairs share the
/// full support set and the flow solver's warm start can fire on all of
/// them.
fn dense_hists(n: usize) -> Vec<Histogram> {
    let spec = BinSpec::equal_width(0.0, 1.0, 10).expect("spec");
    (0..n)
        .map(|k| {
            let mut vals = Vec::new();
            for b in 0..10usize {
                let copies = 1 + (k * 7 + b * 3) % 5;
                for c in 0..copies {
                    vals.push((b as f64 + 0.3 + 0.1 * (c % 4) as f64) / 10.0);
                }
            }
            Histogram::from_values(spec.clone(), vals)
        })
        .collect()
}

/// The transportation-simplex oracle's EMD on the full matrix of
/// distances between bin centres.
fn simplex_oracle(a: &Histogram, b: &Histogram) -> f64 {
    let fa = a.frequencies().expect("non-empty histogram");
    let fb = b.frequencies().expect("non-empty histogram");
    let centres = a.spec().centres();
    let costs: Vec<Vec<f64>> = centres
        .iter()
        .map(|x| centres.iter().map(|y| (x - y).abs()).collect())
        .collect();
    simplex::solve(&fa, &fb, &costs)
        .expect("simplex solve")
        .cost
}

/// Bit-identity of arena vs legacy per pair, agreement with the simplex
/// oracle, and warm-vs-cold bit-identity on the audit histograms.
fn assert_value_safety(hists: &[&Histogram]) {
    let flow = EmdExact;
    let mut scratch = SolveScratch::new();
    scratch.begin_chunk();
    let mut checked = 0usize;
    for (i, a) in hists.iter().enumerate() {
        for b in &hists[i + 1..] {
            let legacy = flow.distance(a, b).expect("legacy solve");
            let arena = flow.distance_with(a, b, &mut scratch).expect("arena solve");
            assert_eq!(
                arena.to_bits(),
                legacy.to_bits(),
                "arena path diverged from legacy: {arena} vs {legacy}"
            );
            // A possibly-warm solve just ran on `scratch`; a fresh
            // scratch is cold by construction.
            let cold = flow
                .distance_with(a, b, &mut SolveScratch::new())
                .expect("cold solve");
            assert_eq!(
                arena.to_bits(),
                cold.to_bits(),
                "warm-started solve diverged from cold: {arena} vs {cold}"
            );
            let sx = simplex_oracle(a, b);
            assert!(
                (sx - legacy).abs() <= 1e-9,
                "simplex oracle diverged from the kernel: {sx} vs {legacy}"
            );
            checked += 1;
        }
    }
    println!("value safety: {checked} pairs bit-identical (arena vs legacy, warm vs cold), kernel vs simplex oracle within 1e-9");
}

/// Ground-cache and allocation discipline: one build per grid, zero
/// builds and zero footprint growth over twenty steady-state sweeps.
fn assert_cache_discipline(hists: &[&Histogram]) {
    let flow = EmdExact;
    let cache = GroundCache::global();
    let mut scratch = SolveScratch::new();
    // `begin_chunk` zeroes the per-chunk counters, so fold each sweep's
    // counters into a lifetime total.
    let sweep = |scratch: &mut SolveScratch| -> ScratchStats {
        scratch.begin_chunk();
        for (i, a) in hists.iter().enumerate() {
            for b in &hists[i + 1..] {
                black_box(flow.distance_with(a, b, scratch).expect("solve"));
            }
        }
        scratch.take_stats()
    };
    let mut stats = sweep(&mut scratch); // warm-up: builds the grid's matrix (at most) once
    let builds = cache.builds();
    let footprint = scratch.footprint();
    assert!(footprint > 0, "warm scratch must own solver buffers");
    for _ in 0..20 {
        stats.merge(sweep(&mut scratch));
    }
    assert_eq!(
        cache.builds(),
        builds,
        "steady-state sweeps rebuilt a ground matrix"
    );
    // Steady-state solves are served from the scratch-local slot — the
    // process-wide cache is only consulted when a scratch goes cold, so
    // the scratch's own hit counter is the one that must cover every
    // solve (asserted below).
    assert_eq!(
        scratch.footprint(),
        footprint,
        "steady-state sweeps grew the scratch — a per-solve allocation is back"
    );
    let pairs = hists.len() * (hists.len() - 1) / 2;
    assert!(
        stats.ground_cache_hits >= (21 * pairs - 1) as u64,
        "every solve (except a process-wide first build) must be served a cached ground matrix: {} of {}",
        stats.ground_cache_hits,
        21 * pairs
    );
    println!(
        "cache discipline: {} lifetime builds, 0 across 20 steady-state sweeps; footprint stable at {} elements over {} solves",
        cache.builds(),
        footprint,
        21 * pairs
    );
}

/// Batch-kernel counters on a dense-support workload: warm starts fire,
/// scratches are reused, and value + every counter are identical for
/// every thread count.
fn assert_batch_counters(dense: &[Histogram]) {
    let flow = EmdExact;
    let hists: Vec<&Histogram> = dense.iter().collect();
    let pairs = (hists.len() * (hists.len() - 1) / 2) as u64;
    let base = pairwise_emd_batch(&hists, &flow, 1, None).expect("serial batch");
    let BatchValue::Average(value) = base.value else {
        panic!("no abandon threshold was set");
    };
    assert!(value.is_finite());
    assert_eq!(base.stats.pairs, pairs);
    assert_eq!(
        base.stats.exact_solves, pairs,
        "no bounds — every pair solves"
    );
    assert_eq!(
        base.stats.ground_cache_hits, pairs,
        "primed batch must serve every solve from the ground cache"
    );
    assert_eq!(
        base.stats.scratch_reuses,
        pairs - base.stats.pool_tasks,
        "every solve after the first in its chunk must reuse the scratch"
    );
    assert_eq!(
        base.stats.warm_starts,
        pairs - base.stats.pool_tasks,
        "full-support pairs must warm-start every solve after the first in its chunk"
    );
    for threads in [2usize, 3, 8] {
        let par = pairwise_emd_batch(&hists, &flow, threads, None).expect("parallel batch");
        assert_eq!(par.value, base.value, "{threads}-thread value diverged");
        assert_eq!(par.stats, base.stats, "{threads}-thread counters diverged");
    }
    println!(
        "batch counters: {} pairs, {} ground cache hits, {} scratch reuses, {} warm starts — identical at 1/2/3/8 threads",
        base.stats.pairs, base.stats.ground_cache_hits, base.stats.scratch_reuses, base.stats.warm_starts
    );
}

fn min_of_3(mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

/// The speedup gate, on the exact-survivor profile (sparse deep
/// partitions): a pairwise sweep on the shared scratch must beat the
/// seed's allocate-per-solve sweep by at least 2×.
fn assert_speedup(survivors: &[&Histogram]) {
    let flow = EmdExact;
    let mut scratch = SolveScratch::new();
    // Value-check the vendored seed path against the arena path before
    // trusting its timings, and warm both (ground cache, scratch
    // buffers, branch predictors).
    scratch.begin_chunk();
    for (i, a) in survivors.iter().enumerate() {
        for b in &survivors[i + 1..] {
            let old = seed::emd_distance(a, b);
            let new = flow.distance_with(a, b, &mut scratch).expect("arena solve");
            assert!(
                (old - new).abs() <= 1e-9,
                "seed baseline diverged from the arena path: {old} vs {new}"
            );
        }
    }
    let seed_time = min_of_3(|| {
        for (i, a) in survivors.iter().enumerate() {
            for b in &survivors[i + 1..] {
                black_box(seed::emd_distance(a, b));
            }
        }
    });
    let arena = min_of_3(|| {
        scratch.begin_chunk();
        for (i, a) in survivors.iter().enumerate() {
            for b in &survivors[i + 1..] {
                black_box(flow.distance_with(a, b, &mut scratch).expect("arena solve"));
            }
        }
    });
    let pairs = survivors.len() * (survivors.len() - 1) / 2;
    let mean_support: f64 = survivors
        .iter()
        .map(|h| h.counts().iter().filter(|&&c| c > 0.0).count())
        .sum::<usize>() as f64
        / survivors.len() as f64;
    let ratio = seed_time.as_secs_f64() / arena.as_secs_f64().max(1e-12);
    assert!(
        ratio >= 2.0,
        "arena sweep must be >= 2x the seed per-solve path, got {ratio:.2}x ({seed_time:?} vs {arena:?})"
    );
    println!(
        "speedup: {} survivor hists (mean support {:.2}), {} pairs; arena sweep {:?} vs seed {:?} — {:.2}x",
        survivors.len(),
        mean_support,
        pairs,
        arena,
        seed_time,
        ratio
    );
}

fn bench_exact_solver(c: &mut Criterion) {
    let workers = prepare_population(4000, 0xEDB7_2019);
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).expect("audit context");
    let parts = partitions(&ctx);
    let all: Vec<&Histogram> = parts
        .iter()
        .map(|p| &p.histogram)
        .filter(|h| !h.is_empty())
        .collect();
    // The O(pairs) correctness assertions run four solves per pair;
    // a 40-histogram slice keeps them fast without losing coverage.
    let sample: Vec<&Histogram> = all.iter().copied().take(40).collect();
    // The exact-survivor profile: sparse deep partitions, the shape the
    // bound screen actually hands to the exact solver.
    let survivors: Vec<&Histogram> = all
        .iter()
        .copied()
        .filter(|h| {
            let support = h.counts().iter().filter(|&&c| c > 0.0).count();
            (2..=5).contains(&support)
        })
        .take(60)
        .collect();
    assert!(
        survivors.len() >= 30,
        "audit workload must yield sparse survivor histograms, got {}",
        survivors.len()
    );
    let dense = dense_hists(16);

    assert_value_safety(&sample);
    assert_cache_discipline(&sample);
    assert_batch_counters(&dense);
    assert_speedup(&survivors);

    let flow = EmdExact;
    let mut group = c.benchmark_group("exact_solver");
    group.sample_size(10);
    group.bench_function("seed_per_solve", |b| {
        b.iter(|| {
            for (i, a) in all.iter().enumerate() {
                for h in &all[i + 1..] {
                    black_box(seed::emd_distance(a, h));
                }
            }
        })
    });
    group.bench_function("legacy_per_solve", |b| {
        b.iter(|| {
            for (i, a) in all.iter().enumerate() {
                for h in &all[i + 1..] {
                    black_box(flow.distance(a, h).expect("solve"));
                }
            }
        })
    });
    group.bench_function("arena_scratch", |b| {
        let mut scratch = SolveScratch::new();
        b.iter(|| {
            scratch.begin_chunk();
            for (i, a) in all.iter().enumerate() {
                for h in &all[i + 1..] {
                    black_box(flow.distance_with(a, h, &mut scratch).expect("solve"));
                }
            }
        })
    });
    group.bench_function("arena_batch_parallel", |b| {
        b.iter(|| black_box(pairwise_emd_batch(&all, &flow, 4, None).expect("batch")))
    });
    group.finish();
}

criterion_group!(benches, bench_exact_solver);
criterion_main!(benches);
