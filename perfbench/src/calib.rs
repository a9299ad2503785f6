//! Host-speed reference. The shared host's neighbours slow this process by
//! up to 2× for episodes of seconds to minutes, far beyond any bound the
//! gated metrics may set. A fixed kernel, run right after each unit of work
//! on as many threads as the workload uses, sees most of the same slowdown:
//! over ten runs on the 2-vCPU Xeon host, the median `train_dcgan32` step
//! spread by 35 % of its median (interquartile range) and the step over the
//! kernel time by 13 %; the `model_eval` eval by 12 % and the pass over the
//! kernel time by 6 %.
//! The gated times are therefore reported at the host speed where the
//! kernel takes [`NOMINAL_MS`]: raw × `NOMINAL_MS` / kernel time. The kernel
//! is the benchmark's own code on its own threads and heap arenas, so a
//! change to the program cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Milliseconds the reference kernel took (median) on the 2-vCPU Xeon
/// 2.1 GHz host the benchmark was defined on. A fixed constant: it sets
/// the scale of the adjusted times, never their run-to-run spread.
pub const NOMINAL_MS: f64 = 3.5;

const INSERTS: u64 = 10_000;
const KEYS: u64 = 25_000;

/// Ordered-map inserts of small heap values under pseudo-random keys, then
/// a lookup of every key: branchy pointer-chasing and allocation, like the
/// model and the runtime code. Returns its milliseconds.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % KEYS, vec![i; 4]);
    }
    let mut acc = 0u64;
    for k in 0..KEYS {
        if let Some(v) = map.get(&k) {
            acc = acc.wrapping_add(v[0]);
        }
    }
    black_box(acc);
    drop(black_box(map));
    t.elapsed().as_secs_f64() * 1e3
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Moves the calling thread onto `cpu`; best effort: if the host refuses,
/// the kernel runs wherever the scheduler puts it.
fn run_on(cpu: usize) {
    let mut mask = [0u64; 16];
    if let Some(word) = mask.get_mut(cpu / 64) {
        *word = 1 << (cpu % 64);
        // SAFETY: pid 0 is the calling thread and `mask` is a valid CPU set
        // of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

/// One thread that runs the kernel on request, on the CPU the request
/// names. The calling thread blocks while the kernel runs, so the kernel
/// measures the host, not a competitor; and each runner allocates from its
/// own heap arena, which nothing else touches, so the program's heap state
/// cannot change the kernel's time.
struct Runner {
    request: Sender<usize>,
    reply: Receiver<f64>,
}

impl Runner {
    fn spawn() -> Self {
        let (request, requests) = mpsc::channel::<usize>();
        let (replies, reply) = mpsc::channel();
        std::thread::Builder::new()
            .name("perfbench-calib".into())
            .spawn(move || {
                for cpu in requests {
                    run_on(cpu);
                    if replies.send(kernel_ms()).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn a reference-kernel thread");
        Runner { request, reply }
    }
}

static RUNNERS: OnceLock<Mutex<Vec<Runner>>> = OnceLock::new();

/// Runs the reference kernel once on each of `threads` runner threads at
/// the same time and returns the slowest one's ms: a workload on several
/// threads waits for its slowest one, so its reference does too. The first runner uses the caller's CPU, the others the next
/// CPUs in turn, so a one-thread workload is compared with its own CPU.
pub fn reference_ms(threads: usize) -> f64 {
    let threads = threads.max(1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let here = usize::try_from(unsafe { sched_getcpu() }).unwrap_or(0);
    let mut runners = RUNNERS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("reference-kernel lock");
    while runners.len() < threads {
        runners.push(Runner::spawn());
    }
    let active = &runners[..threads];
    for (i, r) in active.iter().enumerate() {
        let cpu = if i == 0 { here } else { (here + i) % cpus };
        r.request.send(cpu).expect("reference-kernel thread alive");
    }
    active
        .iter()
        .map(|r| r.reply.recv().expect("reference-kernel thread alive"))
        .fold(0.0, f64::max)
}

/// Runs `work`, which returns its result and its raw time, between two
/// reference kernel runs on `threads` threads; returns the result and the
/// time scaled to the nominal host speed by the mean of the two runs.
pub fn bracketed<T>(threads: usize, work: impl FnOnce() -> (T, f64)) -> (T, f64) {
    let before = reference_ms(threads);
    let (out, raw) = work();
    let after = reference_ms(threads);
    (out, raw * NOMINAL_MS * 2.0 / (before + after))
}

/// A time `raw` measured just before a reference kernel run on `threads`
/// threads, scaled to the nominal host speed. Returns the adjusted time
/// and the kernel's ms.
pub fn adjusted(raw: f64, threads: usize) -> (f64, f64) {
    let r = reference_ms(threads);
    (raw * NOMINAL_MS / r, r)
}
