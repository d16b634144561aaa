//! # sns-workload — the traced HTTP workload model
//!
//! The paper's evaluation (§4.1–§4.2) is driven by a 1.5-month trace of
//! ~20 million HTTP requests from the UC Berkeley dialup-IP population
//! (~8000 active users behind 600 modems). The trace itself is not
//! available, so this crate implements a synthetic workload calibrated to
//! every statistic the paper publishes:
//!
//! * **MIME mix** (§4.1): GIF 50%, HTML 22%, JPEG 18%, other 10%;
//! * **content-length distributions** (Figure 5): mean sizes HTML 5131 B,
//!   GIF 3428 B, JPEG 12070 B; a *bimodal* GIF distribution (icon plateau
//!   below 1 KB, photo plateau above) and a JPEG distribution that falls
//!   off rapidly below 1 KB;
//! * **burstiness across time scales** (Figure 6): a strong 24-hour
//!   diurnal cycle overlaid with self-similar short-time-scale bursts
//!   (multiplicative b-model cascade), averaging ≈5.8 req/s with ≈12.6
//!   req/s peaks in 2-minute buckets;
//! * a **reference-locality model** for the §4.4 cache studies: a shared
//!   Zipf-popular core plus per-user private working sets, so hit rate
//!   grows with population until working sets exceed the cache.
//!
//! The paper's trace playback engine (§4.1) issues requests "at a
//! constant (and dynamically tunable) rate, or ... according to the
//! timestamps in the trace file". Here every [`TraceRecord`] carries its
//! send offset in `at`: [`TraceGenerator::constant_rate`] stamps a
//! constant-rate trace, [`TraceGenerator::bursty`] stamps arrivals drawn
//! from an [`ArrivalProcess`], and a client sends each record at its
//! `at`.

#![warn(missing_docs)]

pub mod bursts;
pub mod mix;
pub mod replay;
pub mod sizes;
pub mod trace;
pub mod zipf;

pub use bursts::{ArrivalProcess, DiurnalProfile};
pub use mix::MimeMix;
pub use replay::{EpochLoad, FlashCrowd, ReplayLoad};
pub use sizes::SizeModel;
pub use trace::{Trace, TraceGenerator, TraceRecord, WorkloadConfig};
pub use zipf::Zipf;

/// Content types distinguished by the paper's trace analysis (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MimeType {
    /// `image/gif` — 50% of traced requests.
    Gif,
    /// `text/html` — 22% of traced requests.
    Html,
    /// `image/jpeg` — 18% of traced requests.
    Jpeg,
    /// Everything else — passed through undistilled.
    Other,
}

impl MimeType {
    /// Canonical MIME string.
    pub fn as_str(self) -> &'static str {
        match self {
            MimeType::Gif => "image/gif",
            MimeType::Html => "text/html",
            MimeType::Jpeg => "image/jpeg",
            MimeType::Other => "application/octet-stream",
        }
    }

    /// File extension used in generated URLs.
    pub fn extension(self) -> &'static str {
        match self {
            MimeType::Gif => "gif",
            MimeType::Html => "html",
            MimeType::Jpeg => "jpg",
            MimeType::Other => "bin",
        }
    }
}

impl std::fmt::Display for MimeType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mime_strings() {
        assert_eq!(MimeType::Gif.as_str(), "image/gif");
        assert_eq!(MimeType::Jpeg.extension(), "jpg");
        assert_eq!(format!("{}", MimeType::Html), "text/html");
    }
}
