//! The unit of data TACC workers transform.
//!
//! HTML content is carried as **real text** (the HTML distiller and the
//! keyword filter do genuine string processing); image content is a
//! synthetic model (byte length, pixel dimensions, quality) because the
//! paper's image corpus is unavailable and every measurement that
//! involves images depends only on sizes and costs, not pixel values.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use sns_core::{AppData, Payload};
use sns_workload::MimeType;

/// Content body representations.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Real text (HTML and other text types).
    Text(String),
    /// Synthetic binary content: length plus an image-dimension model.
    Synthetic {
        /// Byte length.
        len: u64,
        /// Pixel width.
        width: u32,
        /// Pixel height.
        height: u32,
    },
}

impl Body {
    /// Byte length of the body.
    pub fn len(&self) -> u64 {
        match self {
            Body::Text(t) => t.len() as u64,
            Body::Synthetic { len, .. } => *len,
        }
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A (possibly transformed) content object.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentObject {
    /// Source URL.
    pub url: String,
    /// MIME type.
    pub mime: MimeType,
    /// The body.
    pub body: Body,
    /// Remaining quality in `(0, 1]` (1 = original; distillation
    /// reduces it).
    pub quality: f64,
    /// Which transformations produced this variant, in order.
    pub lineage: Vec<String>,
    /// Free-form metadata (e.g. extracted dates for aggregators).
    pub meta: BTreeMap<String, String>,
}

impl ContentObject {
    /// An original (untransformed) object with a synthetic body sized to
    /// plausible image dimensions.
    pub fn synthetic(url: impl Into<String>, mime: MimeType, len: u64) -> Self {
        // Rough dimension model: bytes-per-pixel by type (GIF ~0.35
        // compressed, JPEG ~0.12 at web quality), 4:3 aspect.
        let bpp = match mime {
            MimeType::Gif => 0.35,
            MimeType::Jpeg => 0.12,
            _ => 0.25,
        };
        let pixels = (len as f64 / bpp).max(64.0);
        let width = (pixels * 4.0 / 3.0).sqrt().round() as u32;
        let height = (pixels / width.max(1) as f64).round() as u32;
        ContentObject {
            url: url.into(),
            mime,
            body: Body::Synthetic {
                len,
                width: width.max(1),
                height: height.max(1),
            },
            quality: 1.0,
            lineage: Vec::new(),
            meta: BTreeMap::new(),
        }
    }

    /// An original text object.
    pub fn text(url: impl Into<String>, mime: MimeType, text: impl Into<String>) -> Self {
        ContentObject {
            url: url.into(),
            mime,
            body: Body::Text(text.into()),
            quality: 1.0,
            lineage: Vec::new(),
            meta: BTreeMap::new(),
        }
    }

    /// Byte length of the body.
    pub fn len(&self) -> u64 {
        self.body.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Wraps into a shared SNS payload.
    pub fn into_payload(self) -> Payload {
        Arc::new(self)
    }

    /// Extracts a content object from a payload.
    pub fn from_payload(p: &Payload) -> Option<&ContentObject> {
        sns_core::payload_as::<ContentObject>(p)
    }
}

impl AppData for ContentObject {
    fn wire_size(&self) -> u64 {
        self.len() + self.url.len() as u64 + 32
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Generates a deterministic synthetic HTML page: a title, some prose and
/// `n_images` inline image references — enough structure for the HTML
/// distiller and keyword filter to do real work.
pub fn synth_html(url: &str, n_images: usize, words: &[&str]) -> String {
    use std::fmt::Write as _;
    // Sized up front: head, tail and images, and per word its space and
    // a share of its paragraph's tags.
    let prose: usize = words.iter().map(|w| w.len() + 2).sum();
    let mut out = String::with_capacity(72 + prose + (n_images + 2) * (url.len() + 48));
    let _ = write!(
        out,
        "<html><head><title>Page {url}</title></head><body>\n<h1>{url}</h1>\n"
    );
    for (i, chunk) in words.chunks(12).enumerate() {
        out.push_str("<p>");
        out.extend(chunk.iter().flat_map(|w| [" ", w]).skip(1));
        out.push_str("</p>\n");
        if i < n_images {
            let _ = writeln!(
                out,
                "<img src=\"{url}/img{i}.gif\" width=\"320\" height=\"240\">"
            );
        }
    }
    // Any remaining images the prose didn't interleave.
    for i in words.chunks(12).len()..n_images {
        let _ = writeln!(
            out,
            "<img src=\"{url}/img{i}.gif\" width=\"320\" height=\"240\">"
        );
    }
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_dimensions_scale_with_size() {
        let small = ContentObject::synthetic("u", MimeType::Gif, 500);
        let big = ContentObject::synthetic("u", MimeType::Gif, 50_000);
        let (Body::Synthetic { width: w1, .. }, Body::Synthetic { width: w2, .. }) =
            (&small.body, &big.body)
        else {
            panic!("synthetic bodies");
        };
        assert!(w2 > w1);
        assert_eq!(small.len(), 500);
        assert_eq!(small.quality, 1.0);
    }

    #[test]
    fn payload_roundtrip() {
        let obj = ContentObject::text("http://x", MimeType::Html, "<html></html>");
        let p = obj.clone().into_payload();
        assert_eq!(ContentObject::from_payload(&p), Some(&obj));
        assert!(p.wire_size() >= obj.len());
    }

    #[test]
    fn synth_html_contains_images_and_parses() {
        let words: Vec<&str> = "the quick brown fox jumps over a lazy dog again and again"
            .split(' ')
            .collect();
        let html = synth_html("http://h/p", 3, &words);
        assert_eq!(html.matches("<img ").count(), 3);
        assert!(html.contains("<title>"));
        assert!(html.ends_with("</body></html>\n"));
    }
}
