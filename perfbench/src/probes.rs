//! Outside-in timings of layers on a workload's own inputs: the tokenizer,
//! the prompt builder and the frame codec are timed by calling their public
//! functions on the prompts the workload sends.

use lmpeel_serve::frontend::WireRequest;
use lmpeel_tokenizer::{TokenId, Tokenizer};
use std::hint::black_box;
use std::time::Instant;

/// Repeats of each probe, so sub-microsecond calls still sum to a
/// measurable time.
const REPEATS: usize = 5;

/// Mean time of one `f(item)` over `items`, in microseconds.
pub fn mean_us<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for _ in 0..REPEATS {
        for item in items {
            black_box(f(black_box(item)));
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (REPEATS * items.len()) as f64
}

/// `Tokenizer::encode` cost per KB of prompt text.
pub fn encode_us_per_kb(tokenizer: &Tokenizer, texts: &[String]) -> f64 {
    let bytes: usize = texts.iter().map(String::len).sum();
    if bytes == 0 {
        return 0.0;
    }
    let per_text = mean_us(texts, |t| tokenizer.encode(t));
    per_text * texts.len() as f64 / (bytes as f64 / 1024.0)
}

/// Mean `(encode, decode)` cost of one request frame carrying each prompt,
/// in microseconds.
pub fn codec_us(prompts: &[Vec<TokenId>], max_tokens: u32) -> (f64, f64) {
    let requests: Vec<WireRequest> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| WireRequest::new(i as u64, "default", p.clone(), max_tokens))
        .collect();
    let encode = mean_us(&requests, WireRequest::encode);
    let frames: Vec<Vec<u8>> = requests.iter().map(WireRequest::encode).collect();
    let decode = mean_us(&frames, |f| {
        WireRequest::decode(f).expect("own frame decodes")
    });
    (encode, decode)
}
