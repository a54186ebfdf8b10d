//! Named scheme-set presets: the combinations the paper's figures (and
//! the full design-space exports) evaluate, ready to hand to
//! [`Experiment::dschemes`](crate::Experiment::dschemes) /
//! [`ischemes`](crate::Experiment::ischemes).

use crate::{DScheme, IScheme};

/// The D-cache schemes of Figures 4–5: original, set buffer \[14\], ours.
#[must_use]
pub fn fig4_dschemes() -> Vec<DScheme> {
    vec![
        DScheme::Original,
        DScheme::SetBuffer { entries: 1 },
        DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 8,
        },
    ]
}

/// The I-cache schemes of Figures 6–7: approach \[4\] plus ours with 2×8,
/// 2×16 and 2×32 MABs.
#[must_use]
pub fn fig6_ischemes() -> Vec<IScheme> {
    vec![
        IScheme::IntraLine,
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 8,
        },
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 16,
        },
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 32,
        },
    ]
}

/// Every implemented D-cache lookup scheme — conventional, the paper's
/// way memoization, and all ablations — in presentation order. The
/// `export` and `ingest` bins run this full comparison so their JSON
/// rows cover the whole design space.
#[must_use]
pub fn full_dschemes() -> Vec<DScheme> {
    vec![
        DScheme::Original,
        DScheme::SetBuffer { entries: 1 },
        DScheme::FilterCache { lines: 4 },
        DScheme::WayPredict,
        DScheme::TwoPhase,
        DScheme::paper_way_memo(),
        DScheme::WayMemoLineBuffer {
            tag_entries: 2,
            set_entries: 8,
            line_entries: 2,
        },
    ]
}

/// Every implemented I-cache lookup scheme, in presentation order; the
/// I-side counterpart of [`full_dschemes`].
#[must_use]
pub fn full_ischemes() -> Vec<IScheme> {
    vec![
        IScheme::Original,
        IScheme::IntraLine,
        IScheme::LinkMemo,
        IScheme::ExtendedBtb { entries: 32 },
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 8,
        },
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 16,
        },
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 32,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_lists_have_expected_sizes() {
        assert_eq!(fig4_dschemes().len(), 3);
        assert_eq!(fig6_ischemes().len(), 4);
        assert_eq!(full_dschemes().len(), 7);
        assert_eq!(full_ischemes().len(), 7);
    }

    #[test]
    fn figure_presets_prefix_the_full_space() {
        // Every figure scheme appears in the full design-space list, so
        // `export`'s rows subsume the figures'.
        for s in fig4_dschemes() {
            assert!(full_dschemes().contains(&s), "{}", s.name());
        }
        for s in fig6_ischemes() {
            assert!(full_ischemes().contains(&s), "{}", s.name());
        }
    }
}
