//! Per-document statistics — the columns of the paper's Table 1.

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::cursor::DocScan;
use crate::error::CoreResult;

/// One row of Table 1 for a dataset.
#[derive(Debug, Clone, Default)]
pub struct DocStats {
    /// Original XML document size in bytes (supplied by the caller).
    pub xml_bytes: u64,
    /// Element nodes (attribute nodes included, as in the subject tree).
    pub nodes: u64,
    /// Average node depth (root = 1).
    pub avg_depth: f64,
    /// Maximum node depth.
    pub max_depth: u32,
    /// Distinct tag names (attribute tags included).
    pub tags: usize,
    /// Measured bytes of the string representation (paper's |tree|): page
    /// headers plus encoded content, summed over the chain.
    pub tree_bytes: u64,
    /// Tag-name B+ tree footprint (paper's |B+t|).
    pub bt_tag_bytes: u64,
    /// Value B+ tree footprint (paper's |B+v|).
    pub bt_val_bytes: u64,
    /// Dewey B+ tree footprint (paper's |B+i|).
    pub bt_id_bytes: u64,
    /// Detached value data file size.
    pub data_bytes: u64,
}

impl DocStats {
    /// What the paper's accounting gives for |tree|: 3 bytes per node
    /// (a 2-byte Σ character and a 1-byte `)`), page headers excluded. The
    /// reference column next to the measured [`DocStats::tree_bytes`].
    pub fn paper_tree_bytes(&self) -> u64 {
        self.nodes * 3
    }

    /// Compression ratio of the structure: document bytes per string byte
    /// (the paper claims 20–100).
    pub fn structure_ratio(&self) -> f64 {
        if self.tree_bytes == 0 {
            return 0.0;
        }
        self.xml_bytes as f64 / self.tree_bytes as f64
    }

    /// Render as a Table 1 style row.
    pub fn row(&self, name: &str) -> String {
        format!(
            "{name:<10} {:>9.2} MB {:>9} {:>6.1} {:>5} {:>5} {:>8.3} MB {:>8.3} MB {:>8.2} MB {:>8.2} MB {:>8.2} MB",
            self.xml_bytes as f64 / 1_048_576.0,
            self.nodes,
            self.avg_depth,
            self.max_depth,
            self.tags,
            self.tree_bytes as f64 / 1_048_576.0,
            self.paper_tree_bytes() as f64 / 1_048_576.0,
            self.bt_tag_bytes as f64 / 1_048_576.0,
            self.bt_val_bytes as f64 / 1_048_576.0,
            self.bt_id_bytes as f64 / 1_048_576.0,
        )
    }

    /// Header matching [`DocStats::row`].
    pub fn header() -> String {
        format!(
            "{:<10} {:>12} {:>9} {:>6} {:>5} {:>5} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "data set",
            "size",
            "#nodes",
            "avg.d",
            "max.d",
            "tags",
            "|tree|",
            "3 B/node",
            "|B+t|",
            "|B+v|",
            "|B+i|"
        )
    }
}

impl<S: Storage> XmlDb<S> {
    /// Compute the Table 1 statistics for this database. `xml_bytes` is the
    /// size of the source document (unknown to the store itself).
    pub fn stats(&self, xml_bytes: u64) -> CoreResult<DocStats> {
        let mut nodes = 0u64;
        let mut depth_sum = 0u64;
        let mut max_depth = 0u32;
        for item in DocScan::new(&self.store) {
            let item = item?;
            nodes += 1;
            depth_sum += item.level as u64;
            max_depth = max_depth.max(item.level as u32);
        }
        Ok(DocStats {
            xml_bytes,
            nodes,
            avg_depth: if nodes == 0 {
                0.0
            } else {
                depth_sum as f64 / nodes as f64
            },
            max_depth,
            tags: self.dict.len(),
            tree_bytes: self.store.structure_bytes()?,
            bt_tag_bytes: self.bt_tag.footprint_bytes(),
            bt_val_bytes: self.bt_val.footprint_bytes(),
            bt_id_bytes: self.bt_id.footprint_bytes(),
            data_bytes: self.data.len_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_doc() {
        let xml = r#"<bib><book year="1994"><title>T</title></book><book year="2000"><title>U</title></book></bib>"#;
        let db = XmlDb::build_in_memory(xml).unwrap();
        let st = db.stats(xml.len() as u64).unwrap();
        assert_eq!(st.nodes, 7); // bib + 2×(book,@year,title)
        assert_eq!(st.max_depth, 3);
        assert_eq!(st.tags, 4); // bib, book, @year, title
                                // One page: 12-byte header, count word, 14 parenthesis bits, seven
                                // one-byte tag codes.
        assert_eq!(st.tree_bytes, 12 + 2 + 2 + 7);
        assert_eq!(st.paper_tree_bytes(), 7 * 3);
        assert!(st.avg_depth > 1.0 && st.avg_depth < 3.0);
        assert!(st.bt_id_bytes > 0);
        assert!(st.data_bytes > 0);
    }

    #[test]
    fn row_formats_without_panicking() {
        let st = DocStats::default();
        assert!(st.row("empty").contains("empty"));
        assert!(DocStats::header().contains("#nodes"));
        assert_eq!(st.structure_ratio(), 0.0);
    }
}
