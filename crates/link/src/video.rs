//! VR video bandwidth requirements — the §2.1 motivation, as arithmetic.
//!
//! "Even a 2D uncompressed 8K RGB video at 30 frames per second requires
//! ≈ 24 Gbps; adding the Alpha+depth channels ... would increase the
//! required data rates to as high as 200 Gbps. A recent work \[31\] estimates
//! the bandwidth requirements for a life-like rendered video to be as high
//! as 2.7 to 27 Tbps based on 1800 frames/sec." This module computes those
//! rates from first principles so examples and tests can ask *which content
//! the measured link actually carries*.

/// An uncompressed video format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoFormat {
    /// Descriptive name.
    pub name: &'static str,
    /// Horizontal resolution (pixels).
    pub width: u32,
    /// Vertical resolution (pixels).
    pub height: u32,
    /// Bits per pixel (all channels).
    pub bits_per_pixel: u32,
    /// Frames per second.
    pub fps: f64,
}

impl VideoFormat {
    /// Raw bitrate in Gbps.
    pub fn gbps(&self) -> f64 {
        self.width as f64 * self.height as f64 * self.bits_per_pixel as f64 * self.fps / 1e9
    }

    /// 1080p RGB at 90 fps — a per-eye stream today's tethered headsets use.
    pub fn hd_90() -> VideoFormat {
        VideoFormat {
            name: "1080p RGB @90",
            width: 1920,
            height: 1080,
            bits_per_pixel: 24,
            fps: 90.0,
        }
    }

    /// 4K RGB at 90 fps.
    pub fn uhd4k_90() -> VideoFormat {
        VideoFormat {
            name: "4K RGB @90",
            width: 3840,
            height: 2160,
            bits_per_pixel: 24,
            fps: 90.0,
        }
    }

    /// The paper's anchor: 8K RGB at 30 fps ≈ 24 Gbps.
    pub fn uhd8k_30() -> VideoFormat {
        VideoFormat {
            name: "8K RGB @30",
            width: 7680,
            height: 4320,
            bits_per_pixel: 24,
            fps: 30.0,
        }
    }

    /// 8K with Alpha + 16-bit depth (RGBA-D48) at 60 fps — the "as high as
    /// 200 Gbps" class of §2.1.
    pub fn uhd8k_rgbad_60() -> VideoFormat {
        VideoFormat {
            name: "8K RGBA+depth @60",
            width: 7680,
            height: 4320,
            bits_per_pixel: 48,
            fps: 60.0,
        }
    }
}

/// Which of the given formats fit in a link of `effective_gbps` goodput.
pub fn supported_formats(effective_gbps: f64, formats: &[VideoFormat]) -> Vec<VideoFormat> {
    formats
        .iter()
        .copied()
        .filter(|f| f.gbps() <= effective_gbps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_8k30_is_about_24_gbps() {
        let g = VideoFormat::uhd8k_30().gbps();
        assert!((22.0..26.0).contains(&g), "8K@30 = {g} Gbps (paper: ≈24)");
    }

    #[test]
    fn depth_alpha_class_reaches_paper_band() {
        let g = VideoFormat::uhd8k_rgbad_60().gbps();
        assert!((90.0..200.0).contains(&g), "8K RGBA+D @60 = {g} Gbps");
    }

    #[test]
    fn life_like_is_terabits() {
        // Life-like per [31]: an 8K-class field at 1800 fps (lower bound of
        // the 2.7–27 Tbps estimate).
        let life_like = VideoFormat {
            name: "life-like @1800 [31]",
            width: 7680,
            height: 4320,
            bits_per_pixel: 45,
            fps: 1800.0,
        };
        let g = life_like.gbps();
        assert!(
            (2_000.0..27_000.0).contains(&g),
            "life-like = {g} Gbps (paper: 2.7–27 Tbps)"
        );
    }

    #[test]
    fn what_the_prototypes_carry() {
        // The measured effective goodputs: 9.4 Gbps (10G) and ~23.2 Gbps
        // (25G over the Fig 16 corpus).
        let menu = [
            VideoFormat::hd_90(),
            VideoFormat::uhd4k_90(),
            VideoFormat::uhd8k_30(),
            VideoFormat::uhd8k_rgbad_60(),
        ];
        let on_10g = supported_formats(9.4, &menu);
        let on_25g = supported_formats(23.2, &menu);
        assert_eq!(on_10g.len(), 1, "10G carries 1080p@90 raw: {on_10g:?}");
        // 25G carries up to 4K@90 raw (17.9 Gbps); 8K@30 (23.9) just misses.
        assert_eq!(on_25g.len(), 2, "{on_25g:?}");
        assert!(on_25g.iter().any(|f| f.name.starts_with("4K")));
    }

    #[test]
    fn support_is_monotone_in_bandwidth() {
        let menu = [
            VideoFormat::hd_90(),
            VideoFormat::uhd4k_90(),
            VideoFormat::uhd8k_30(),
        ];
        let a = supported_formats(5.0, &menu).len();
        let b = supported_formats(25.0, &menu).len();
        assert!(a <= b);
    }
}
