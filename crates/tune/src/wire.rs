//! The tune service as a framed TCP request kind.
//!
//! The serve front-end's extension frames (`OP_EXT_REQUEST`) carry an
//! opaque `(kind, payload)`; this module defines the tune kind: a
//! [`TuneWireRequest`] payload in, a [`TuneWireResponse`] payload out,
//! both through the same byte-exact [`wire`] codec the journals use.
//! [`TuneService`] implements [`ExtensionHandler`] directly, so binding a
//! front-end with `Frontend::builder().bind_with_extension(service, addr,
//! tune_service)` serves generation traffic and tune requests over one
//! socket.

use crate::{TuneError, TuneRequest, TuneService};
use lmpeel_core::journal::{size_from_ordinal, size_ordinal};
use lmpeel_recover::wire::{self, Reader};
use lmpeel_serve::ExtensionHandler;

/// The extension-frame kind the tune service answers (`"TUNE"` in ASCII).
pub const TUNE_EXT_KIND: u32 = 0x5455_4E45;

/// A tune request as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneWireRequest {
    /// Kernel name (see [`crate::KERNEL_SYR2K`]).
    pub kernel: String,
    /// Problem size, as [`size_ordinal`].
    pub size_ord: u8,
    /// Evaluation budget per strategy.
    pub budget: u64,
    /// Search seed.
    pub seed: u64,
}

impl TuneWireRequest {
    /// Build the wire form of a library-level request.
    pub fn from_request(req: &TuneRequest) -> Self {
        Self {
            kernel: req.kernel.clone(),
            size_ord: size_ordinal(req.size),
            budget: req.budget as u64,
            seed: req.seed,
        }
    }

    /// Serialize to an extension-frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::put_str(&mut buf, &self.kernel);
        wire::put_u8(&mut buf, self.size_ord);
        wire::put_u64(&mut buf, self.budget);
        wire::put_u64(&mut buf, self.seed);
        buf
    }

    /// Parse a payload; `None` on any malformation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let req = TuneWireRequest {
            kernel: r.str()?,
            size_ord: r.u8()?,
            budget: r.u64()?,
            seed: r.u64()?,
        };
        r.is_done().then_some(req)
    }
}

/// A tune answer as it crosses the wire. Mirrors the deterministic core
/// of [`crate::TuneReport`] (wall-clock validation numbers stay on the
/// server's side of the socket, like they stay out of the cache).
#[derive(Debug, Clone, PartialEq)]
pub struct TuneWireResponse {
    /// Whether the persistent cache answered without any search.
    pub cache_hit: bool,
    /// Winning strategy name.
    pub strategy: String,
    /// Winning configuration's config-space index.
    pub config_index: u64,
    /// The winner's surrogate runtime in seconds.
    pub surrogate_runtime: f64,
    /// Whether the real-kernel validation checksum matched.
    pub validated: bool,
    /// Objective measurements taken to answer (0 on a hit).
    pub fresh_measurements: u64,
}

impl TuneWireResponse {
    /// Serialize to an extension-frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::put_u8(&mut buf, u8::from(self.cache_hit));
        wire::put_str(&mut buf, &self.strategy);
        wire::put_u64(&mut buf, self.config_index);
        wire::put_f64(&mut buf, self.surrogate_runtime);
        wire::put_u8(&mut buf, u8::from(self.validated));
        wire::put_u64(&mut buf, self.fresh_measurements);
        buf
    }

    /// Parse a payload; `None` on any malformation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let cache_hit = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let strategy = r.str()?;
        let config_index = r.u64()?;
        let surrogate_runtime = r.f64()?;
        let validated = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let resp = TuneWireResponse {
            cache_hit,
            strategy,
            config_index,
            surrogate_runtime,
            validated,
            fresh_measurements: r.u64()?,
        };
        r.is_done().then_some(resp)
    }
}

impl ExtensionHandler for TuneService {
    fn handle(&self, kind: u32, payload: &[u8]) -> Result<Vec<u8>, String> {
        if kind != TUNE_EXT_KIND {
            return Err(format!(
                "unknown extension kind {kind:#x} (this handler serves TUNE = {TUNE_EXT_KIND:#x})"
            ));
        }
        let req = TuneWireRequest::decode(payload).ok_or("malformed tune request payload")?;
        let size = size_from_ordinal(req.size_ord)
            .ok_or_else(|| format!("invalid size ordinal {}", req.size_ord))?;
        let report = self
            .tune(
                &TuneRequest {
                    kernel: req.kernel,
                    size,
                    budget: req.budget as usize,
                    seed: req.seed,
                },
                None,
            )
            .map_err(|e: TuneError| e.to_string())?;
        Ok(TuneWireResponse {
            cache_hit: report.cache_hit,
            strategy: report.entry.strategy.clone(),
            config_index: report.entry.config_index,
            surrogate_runtime: report.entry.surrogate_runtime,
            validated: report.entry.validated,
            fresh_measurements: report.fresh_measurements as u64,
        }
        .encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KERNEL_SYR2K;
    use lmpeel_lm::InductionLm;
    use lmpeel_serve::{ExtRequest, ExtResponse, Frontend, InferenceService, LmService, WireSwarm};
    use std::sync::Arc;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lmpeel-tune-wire-{}-{name}", std::process::id()))
    }

    #[test]
    fn wire_forms_roundtrip() {
        let req = TuneWireRequest {
            kernel: KERNEL_SYR2K.into(),
            size_ord: 1,
            budget: 24,
            seed: 7,
        };
        assert_eq!(TuneWireRequest::decode(&req.encode()), Some(req));
        let resp = TuneWireResponse {
            cache_hit: true,
            strategy: "gbdt-surrogate(init=8, pool=256)".into(),
            config_index: 99,
            surrogate_runtime: 0.5,
            validated: true,
            fresh_measurements: 0,
        };
        assert_eq!(TuneWireResponse::decode(&resp.encode()), Some(resp));
        assert_eq!(TuneWireRequest::decode(b"junk"), None);
        assert_eq!(TuneWireResponse::decode(&[2]), None, "bool must be 0/1");
    }

    #[test]
    fn tune_requests_flow_through_the_tcp_frontend() {
        let path = tmp("frontend");
        let _ = std::fs::remove_file(&path);
        let (tune, _) = TuneService::open(&path).unwrap();
        let lm: Arc<dyn LmService> = Arc::new(
            InferenceService::builder()
                .model("default", Arc::new(InductionLm::paper(0)))
                .build(),
        );
        let frontend = Frontend::builder()
            .bind_with_extension(lm, "127.0.0.1:0", Arc::new(tune))
            .unwrap();
        let addr = frontend.local_addr();

        let mut client = WireSwarm::connect(addr, 1).unwrap();
        let req = TuneWireRequest {
            kernel: KERNEL_SYR2K.into(),
            size_ord: 0, // ArraySize::S — keeps the kernel validation quick
            budget: 5,
            seed: 3,
        };
        let mut call = |id: u64, kind: u32, payload: Vec<u8>| {
            client.send(0, &ExtRequest { id, kind, payload }.encode()).unwrap();
            ExtResponse::decode(&client.recv(0).unwrap()).unwrap()
        };
        let first = call(1, TUNE_EXT_KIND, req.encode());
        assert_eq!(first.id, 1);
        let first = TuneWireResponse::decode(&first.result.expect("tune ok")).unwrap();
        assert!(!first.cache_hit);
        assert!(first.fresh_measurements > 0);
        assert!(first.validated);

        // Same request again: answered from the persistent cache.
        let second = call(2, TUNE_EXT_KIND, req.encode());
        let second = TuneWireResponse::decode(&second.result.expect("tune ok")).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.fresh_measurements, 0);
        assert_eq!(second.config_index, first.config_index);

        // Unknown kinds and malformed payloads error without wedging.
        assert!(call(3, 999, req.encode()).result.is_err());
        assert!(call(4, TUNE_EXT_KIND, b"garbage".to_vec()).result.is_err());

        drop(client);
        frontend.shutdown();
        std::fs::remove_file(&path).unwrap();
    }
}
