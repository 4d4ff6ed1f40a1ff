//! The benchmark workloads. Each derives its secret inputs, its
//! `OwlConfig::seed` and, where ASLR is on, its ASLR seed from the
//! workload seed; the program sees only the generated inputs.

use owl::core::{Engine, OwlConfig, TracedProgram};
use owl::workloads::aes::AesTTable;
use owl::workloads::jpeg::{synthetic_image, JpegEncode};

/// Worker threads of every loop detection (the benchmark host has two
/// cores).
pub const PARALLELISM: usize = 2;

/// User inputs per detection.
pub const USER_INPUTS: usize = 4;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["aes-ttable-r10", "aes-ttable-r100", "jpeg-encode-aslr-r100"];

/// A program under test with its inputs and detection parameters.
pub struct Prepared<P: TracedProgram> {
    /// Workload name, also written into the detection summary.
    pub name: &'static str,
    /// The program under test.
    pub program: P,
    /// The generated user inputs.
    pub inputs: Vec<P::Input>,
    /// The detection parameters.
    pub config: OwlConfig,
}

/// SplitMix64: the stream every seed-derived value of a run comes from.
pub struct SeedStream(u64);

impl SeedStream {
    /// The stream of workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        SeedStream(seed)
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// KS-engine detection parameters with `runs` runs per evidence side, the
/// config seed (and the ASLR seed when `aslr`) drawn from `seeds`.
fn config(seeds: &mut SeedStream, runs: usize, aslr: bool) -> OwlConfig {
    let seed = seeds.next_u64();
    OwlConfig {
        runs,
        seed,
        method: Engine::Ks,
        aslr_seed: aslr.then(|| seeds.next_u64()),
        parallelism: PARALLELISM,
        ..OwlConfig::default()
    }
}

/// T-table AES-128 over `blocks` blocks, four seed-derived keys.
pub fn aes_ttable(name: &'static str, seed: u64, blocks: u32, runs: usize) -> Prepared<AesTTable> {
    let mut seeds = SeedStream::new(seed);
    let program = AesTTable::new(blocks);
    let inputs = (0..USER_INPUTS)
        .map(|_| {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&seeds.next_u64().to_le_bytes());
            key[8..].copy_from_slice(&seeds.next_u64().to_le_bytes());
            key
        })
        .collect();
    Prepared {
        name,
        program,
        inputs,
        config: config(&mut seeds, runs, false),
    }
}

/// The JPEG encoder on `side`×`side` images, four seed-derived synthetic
/// images, ASLR on.
pub fn jpeg_encode_aslr(
    name: &'static str,
    seed: u64,
    side: usize,
    runs: usize,
) -> Prepared<JpegEncode> {
    let mut seeds = SeedStream::new(seed);
    let program = JpegEncode::new(side, side);
    let inputs = (0..USER_INPUTS)
        .map(|_| synthetic_image(seeds.next_u64(), side, side))
        .collect();
    Prepared {
        name,
        program,
        inputs,
        config: config(&mut seeds, runs, true),
    }
}
