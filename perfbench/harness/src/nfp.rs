//! The `nfp-stream` workload: seeded query batches streamed through
//! `FusedNfp::run_batch` for all twelve (app x encoding) fields at a
//! fixed list of NFP configurations, plus the engine-level probe the
//! traced runs share.

use std::hint::black_box;
use std::time::Instant;

use ng_dse::SweepSpec;
use ng_neural::apps::{gia, nerf, nsdf, nvr, AppKind, EncodingKind, FieldModel};
use ng_neural::encoding::Encoding;
use ng_neural::math::Pcg32;
use ngpc::engine::{EncodingCluster, FusedNfp, FusedStats, MlpEngine};
use ngpc::NfpConfig;

use crate::util::{median, peak_rss_mb, timed, JsonObject};

/// Queries in one streamed batch.
pub const QUERIES_PER_BATCH: usize = 2048;
/// Batches streamed per visit of a (field, config) pair; the first one
/// pays the reconfiguration.
pub const BATCHES_PER_VISIT: usize = 4;
/// Queries per batch checked bit-exactly against the software model.
const CHECKED_PER_BATCH: usize = 4;
/// Times the twelve fields are built to measure set-up.
const SETUP_REPEATS: usize = 5;

/// One (app x encoding) field, built with the app's own model
/// constructor (NeRF contributes its density field).
pub struct Field {
    pub app: AppKind,
    pub encoding: EncodingKind,
    pub model: FieldModel,
}

/// All twelve fields, weights drawn from `seed`.
pub fn build_fields(seed: u64) -> Vec<Field> {
    let mut fields = Vec::with_capacity(12);
    for app in AppKind::ALL {
        for encoding in EncodingKind::ALL {
            let model = match app {
                AppKind::Nerf => nerf::NerfModel::new(encoding, seed).density_field().clone(),
                AppKind::Nsdf => nsdf::NsdfModel::new(encoding, seed).field().clone(),
                AppKind::Gia => gia::GiaModel::new(encoding, seed).field().clone(),
                AppKind::Nvr => nvr::NvrModel::new(encoding, seed).field().clone(),
            };
            fields.push(Field { app, encoding, model });
        }
    }
    fields
}

/// The paper NFP plus one step along each NFP axis the DSE sweeps. The
/// engine step goes up to 32: 8 engines cannot serve a 16-level
/// hashgrid in the functional model.
pub fn stream_configs() -> Vec<(&'static str, NfpConfig)> {
    let paper = NfpConfig::default();
    vec![
        ("paper", paper),
        ("clock-1.25", NfpConfig { clock_ghz: 1.25, ..paper }),
        ("sram-512k", NfpConfig { grid_sram_bytes: 512 << 10, ..paper }),
        ("banks-4", NfpConfig { grid_sram_banks: 4, ..paper }),
        ("engines-32", NfpConfig { encoding_engines: 32, ..paper }),
        ("mac-rows-32", NfpConfig { mac_rows: 32, ..paper }),
        ("mac-cols-32", NfpConfig { mac_cols: 32, ..paper }),
        ("lanes-2", NfpConfig { lanes_per_engine: 2, ..paper }),
        ("fifo-8", NfpConfig { input_fifo_depth: 8, ..paper }),
    ]
}

/// The cartesian closure of [`stream_configs`] over all twelve fields at
/// 64 NFPs: the stream's design points as a spec the `dse` layers sweep.
pub fn stream_spec() -> SweepSpec {
    let configs: Vec<NfpConfig> = stream_configs().into_iter().map(|(_, c)| c).collect();
    fn axis<T: PartialEq>(configs: &[NfpConfig], value: impl Fn(&NfpConfig) -> T) -> Vec<T> {
        let mut values = Vec::new();
        for v in configs.iter().map(value) {
            if !values.contains(&v) {
                values.push(v);
            }
        }
        values
    }
    SweepSpec {
        name: "nfp-stream".to_string(),
        apps: AppKind::ALL.to_vec(),
        encodings: EncodingKind::ALL.to_vec(),
        nfp_units: vec![64],
        clock_ghz: axis(&configs, |c| c.clock_ghz),
        grid_sram_kb: axis(&configs, |c| (c.grid_sram_bytes >> 10) as u32),
        grid_sram_banks: axis(&configs, |c| c.grid_sram_banks),
        encoding_engines: axis(&configs, |c| c.encoding_engines),
        mac_rows: axis(&configs, |c| c.mac_rows),
        mac_cols: axis(&configs, |c| c.mac_cols),
        lanes_per_engine: axis(&configs, |c| c.lanes_per_engine),
        input_fifo_depth: axis(&configs, |c| c.input_fifo_depth),
        ..SweepSpec::default()
    }
}

/// Uniform queries in the unit cube, a pure function of its arguments.
fn queries(seed: u64, stream: u64, n: usize, dim: usize) -> Vec<f32> {
    let mut rng = Pcg32::with_stream(seed, stream);
    (0..n * dim).map(|_| rng.next_f32()).collect()
}

/// A seeded permutation of `0..n` (Fisher-Yates).
fn shuffled(rng: &mut Pcg32, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u32() as usize) % (i + 1);
        v.swap(i, j);
    }
    v
}

/// The stream's endless sequence of pair visits. Each round visits all
/// twelve fields in a seeded order, each at one configuration; a field
/// steps through the configurations from a seeded offset, so nine rounds
/// visit every pair once. Batch cost depends mostly on the field, so any
/// prefix of whole rounds has the same cost mix whatever the seed.
fn visit_order(seed: u64) -> impl Iterator<Item = usize> {
    let n_fields = AppKind::ALL.len() * EncodingKind::ALL.len();
    let n_configs = stream_configs().len();
    let mut rng = Pcg32::with_stream(seed, 0x0bde_5eed);
    let offsets: Vec<usize> = (0..n_fields).map(|_| rng.next_u32() as usize % n_configs).collect();
    (0..).flat_map(move |round: usize| {
        let fields = shuffled(&mut rng, n_fields);
        let offsets = offsets.clone();
        fields.into_iter().map(move |f| f * n_configs + (round + offsets[f]) % n_configs)
    })
}

/// Whether `outputs` (row-major, `out_dim` wide) match the software
/// model bit for bit on `checked` seeded rows of the batch.
fn outputs_match(
    field: &FieldModel,
    inputs: &[f32],
    outputs: &[f32],
    dim: usize,
    rng: &mut Pcg32,
    checked: usize,
) -> bool {
    let n = inputs.len() / dim;
    if n == 0 || !outputs.len().is_multiple_of(n) {
        return false;
    }
    let out_dim = outputs.len() / n;
    (0..checked).all(|_| {
        let q = (rng.next_u32() as usize) % n;
        match field.forward(&inputs[q * dim..(q + 1) * dim]) {
            Ok(want) => {
                let got = &outputs[q * out_dim..(q + 1) * out_dim];
                want.len() == got.len()
                    && want.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits())
            }
            Err(_) => false,
        }
    })
}

/// Largest |functional cycles/query - analytic| / analytic over the
/// pairs, in percent, and a digest of every pair's simulated counts.
fn gap_and_digest(
    fields: &[Field],
    configs: &[(&'static str, NfpConfig)],
    stats: &[Option<FusedStats>],
) -> (f64, u64) {
    let mut gap: f64 = 0.0;
    let mut counts = String::new();
    for (pair, s) in stats.iter().enumerate() {
        let s = s.expect("every pair has stats");
        let field = &fields[pair / configs.len()];
        let config = &configs[pair % configs.len()].1;
        let functional = s.fused_cycles as f64 / s.queries as f64;
        let analytic = ngpc::per_sample_cycles(field.app, field.encoding, config);
        gap = gap.max((functional - analytic).abs() / analytic * 100.0);
        counts.push_str(&format!(
            "{},{},{},{};",
            s.queries, s.encoding_cycles, s.mlp_cycles, s.fused_cycles
        ));
    }
    (gap, ng_neural::math::fnv1a64(&counts))
}

/// State of one streamed run: the fields, the pairs' first simulated
/// counts, and what the timed part has delivered.
struct Stream {
    seed: u64,
    fields: Vec<Field>,
    configs: Vec<(&'static str, NfpConfig)>,
    first: Vec<Option<FusedStats>>,
    check_rng: Pcg32,
    batch_no: u64,
    walls: Vec<f64>,
    /// The pair each entry of `walls` streamed.
    wall_pairs: Vec<f64>,
    /// Summed batch walls of each whole, correct visit, and its pair.
    visit_walls: Vec<f64>,
    visit_pairs: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Stream {
    /// One visit of `pair`: reconfigure, then stream `batches` batches.
    /// Each batch's wall covers the reconfiguration it needs and its
    /// `run_batch`; its checks run after the timed span.
    fn visit(&mut self, pair: usize, batches: usize) {
        let field = &self.fields[pair / self.configs.len()];
        let config = self.configs[pair % self.configs.len()].1;
        let dim = field.model.encoding.input_dim();
        let mut nfp: Option<FusedNfp> = None;
        let mut all_ok = true;
        let mut visit_wall = 0.0;
        for b in 0..batches {
            self.batch_no += 1;
            let x = queries(self.seed, self.batch_no, QUERIES_PER_BATCH, dim);
            let started = Instant::now();
            if b == 0 {
                nfp = FusedNfp::from_field(config, &field.model).ok();
            }
            let result = nfp.as_mut().map(|n| n.run_batch(black_box(&x)));
            let wall = started.elapsed().as_secs_f64();
            visit_wall += wall;
            self.attempted += 1;
            let ok = match result {
                Some(Ok((out, stats))) => {
                    // Simulated counts must repeat exactly on every batch.
                    *self.first[pair].get_or_insert(stats) == stats
                        && outputs_match(
                            &field.model,
                            &x,
                            &out,
                            dim,
                            &mut self.check_rng,
                            CHECKED_PER_BATCH,
                        )
                }
                _ => false,
            };
            if ok {
                self.walls.push(wall);
                self.wall_pairs.push(pair as f64);
            } else {
                self.failed += 1;
                all_ok = false;
            }
        }
        if all_ok {
            self.visit_walls.push(visit_wall);
            self.visit_pairs.push(pair as f64);
        }
    }
}

/// The untraced `nfp-stream` run: builds the fields (set-up), then
/// streams visits of seeded (field, config) pairs for `seconds`.
pub fn run_stream(seed: u64, seconds: f64) -> JsonObject {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut fields = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(fields);
        let (f, s) = timed(|| build_fields(seed));
        fields = f;
        setup.push(s);
    }
    let configs = stream_configs();
    let pairs = fields.len() * configs.len();
    let mut stream = Stream {
        seed,
        fields,
        configs,
        first: vec![None; pairs],
        check_rng: Pcg32::with_stream(seed, 0xc4ec),
        batch_no: 0,
        walls: Vec::new(),
        wall_pairs: Vec::new(),
        visit_walls: Vec::new(),
        visit_pairs: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();
    for pair in visit_order(seed) {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        stream.visit(pair, BATCHES_PER_VISIT);
    }
    let measured = started.elapsed().as_secs_f64();
    let walls = std::mem::take(&mut stream.walls);
    let wall_pairs = std::mem::take(&mut stream.wall_pairs);
    let visit_walls = std::mem::take(&mut stream.visit_walls);
    let visit_pairs = std::mem::take(&mut stream.visit_pairs);
    // Pairs the stream did not reach get one untimed batch, so the
    // model-gap figure and the digest always cover every pair.
    for pair in 0..pairs {
        if stream.first[pair].is_none() {
            stream.visit(pair, 1);
        }
    }
    let mut out = JsonObject::default();
    out.nums("setup_s", &setup)
        .nums("walls_s", &walls)
        .nums("wall_pairs", &wall_pairs)
        .nums("visit_walls_s", &visit_walls)
        .nums("visit_pairs", &visit_pairs)
        .num("measured_s", measured)
        .int("queries_per_visit", (QUERIES_PER_BATCH * BATCHES_PER_VISIT) as u64)
        .num("peak_rss_mb", peak_rss_mb())
        .int("attempted", stream.attempted)
        .int("failed", stream.failed)
        .int("pairs", pairs as u64);
    if stream.first.iter().all(Option::is_some) {
        let (gap, digest) = gap_and_digest(&stream.fields, &stream.configs, &stream.first);
        out.num("nfp_model_gap_pct", gap).str("cycles_digest", &format!("{digest:016x}"));
    }
    out
}

/// Engine-level layer times over a set of (field, config) pairs.
#[derive(Default)]
pub struct EngineLayers {
    pub model_build_s: f64,
    configure_s: Vec<f64>,
    batch_s: f64,
    encode_s: f64,
    mlp_s: f64,
    forward_s: f64,
    queries: u64,
    encoding_cycles: u64,
    mlp_cycles: u64,
    fused_cycles: u64,
    analytic_cycles: f64,
    /// Per-pair wall of the untraced batch and of its traced twin.
    pub untraced_batch_s: Vec<f64>,
    pub traced_batch_s: Vec<f64>,
    /// Per-pair encoding plus MLP loop time inside the traced batch.
    pub layer_sum_s: Vec<f64>,
    pub failed: u64,
    pub attempted: u64,
}

impl EngineLayers {
    /// Times every engine layer on `pairs` (indices into fields x
    /// configs) with `n` seeded queries each. The traced batch runs the
    /// encoding cluster and the MLP engine as two timed loops, the same
    /// calls `run_batch` makes per query.
    pub fn measure(
        &mut self,
        fields: &[Field],
        configs: &[(&'static str, NfpConfig)],
        pairs: &[usize],
        n: usize,
        seed: u64,
    ) {
        for &pair in pairs {
            let field = &fields[pair / configs.len()];
            let config = configs[pair % configs.len()].1;
            let dim = field.model.encoding.input_dim();
            let x = queries(seed, 0x1a7e_0000 + pair as u64, n, dim);
            self.attempted += 1;
            let (nfp, configure) = timed(|| FusedNfp::from_field(config, &field.model));
            let Ok(mut nfp) = nfp else {
                self.failed += 1;
                continue;
            };
            self.configure_s.push(configure);
            let (batch, batch_s) = timed(|| nfp.run_batch(black_box(&x)));
            let Ok((out, stats)) = batch else {
                self.failed += 1;
                continue;
            };

            let mut cluster = EncodingCluster::new(&config);
            let mut mlp = MlpEngine::new(&config);
            mlp.load_weights(&field.model.mlp);
            if cluster.configure(&field.model.encoding).is_err() {
                self.failed += 1;
                continue;
            }
            let width = field.model.encoding.output_dim();
            let mut features = vec![0.0f32; n * width];
            let traced_start = Instant::now();
            let (encoded, encode_s) = timed(|| {
                x.chunks_exact(dim)
                    .zip(features.chunks_exact_mut(width))
                    .all(|(q, f)| cluster.encode_into(q, f).is_ok())
            });
            let (traced_out, mlp_s) = timed(|| {
                let mut o = Vec::with_capacity(out.len());
                for f in features.chunks_exact(width) {
                    match mlp.forward(f) {
                        Ok(v) => o.extend_from_slice(&v),
                        Err(_) => return None,
                    }
                }
                Some(o)
            });
            let traced_s = traced_start.elapsed().as_secs_f64();
            let (reference, forward_s) = timed(|| {
                x.chunks_exact(dim).map(|q| field.model.forward(q)).collect::<Result<Vec<_>, _>>()
            });
            let reference: Vec<f32> = reference.map(|r| r.concat()).unwrap_or_default();
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            if !encoded
                || traced_out.as_deref().map(bits) != Some(bits(&out))
                || bits(&reference) != bits(&out)
            {
                self.failed += 1;
            }
            self.batch_s += batch_s;
            self.encode_s += encode_s;
            self.mlp_s += mlp_s;
            self.forward_s += forward_s;
            self.untraced_batch_s.push(batch_s);
            self.traced_batch_s.push(traced_s);
            self.layer_sum_s.push(encode_s + mlp_s);
            self.queries += stats.queries;
            self.encoding_cycles += stats.encoding_cycles;
            self.mlp_cycles += stats.mlp_cycles;
            self.fused_cycles += stats.fused_cycles;
            self.analytic_cycles +=
                ngpc::per_sample_cycles(field.app, field.encoding, &config) * stats.queries as f64;
        }
    }

    /// Writes the engine, neural and simulated-cycle layer metrics.
    pub fn write(&self, out: &mut JsonObject) {
        let q = self.queries.max(1) as f64;
        let configure = if self.configure_s.is_empty() { 0.0 } else { median(&self.configure_s) };
        out.num("neural.model_build_s", self.model_build_s)
            .num("nfp.configure_s", configure)
            .num("nfp.batch_ns_per_query", self.batch_s * 1e9 / q)
            .num("nfp.encode_ns_per_query", self.encode_s * 1e9 / q)
            .num("nfp.mlp_ns_per_query", self.mlp_s * 1e9 / q)
            .num("neural.forward_ns_per_query", self.forward_s * 1e9 / q)
            .num("sim.encoding_cycles_per_query", self.encoding_cycles as f64 / q)
            .num("sim.mlp_cycles_per_query", self.mlp_cycles as f64 / q)
            .num("sim.fused_cycles_per_query", self.fused_cycles as f64 / q)
            .num("sim.analytic_cycles_per_query", self.analytic_cycles / q);
    }
}

/// The traced `nfp-stream` run's engine part: passes over every pair in
/// seeded order until `seconds` have gone (at least one pass).
pub fn traced_stream(seed: u64, seconds: f64) -> EngineLayers {
    let (fields, build) = timed(|| build_fields(seed));
    let configs = stream_configs();
    let pairs = fields.len() * configs.len();
    let mut order = Pcg32::with_stream(seed, 0x0bde_5eed);
    let mut layers = EngineLayers { model_build_s: build, ..EngineLayers::default() };
    let started = Instant::now();
    loop {
        layers.measure(&fields, &configs, &shuffled(&mut order, pairs), QUERIES_PER_BATCH, seed);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    layers
}

/// The engine probe of a `dse` workload's traced run: every field at
/// the paper NFP, one small batch each.
pub fn paper_nfp_probe(seed: u64) -> EngineLayers {
    let (fields, build) = timed(|| build_fields(seed));
    let configs = vec![stream_configs()[0]];
    let pairs: Vec<usize> = (0..fields.len()).collect();
    let mut layers = EngineLayers { model_build_s: build, ..EngineLayers::default() };
    layers.measure(&fields, &configs, &pairs, 512, seed);
    layers
}
