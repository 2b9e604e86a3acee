//! Parser for the DESIGN.md §9 tables.
//!
//! §9 is the normative inventory of every invariant the annotations
//! name: each table row starts with an invariant id (`FAMILY.site`).
//! In the ordering tables the `Ordering` column lists the orderings
//! that id licenses to `// ord:` annotations; in the §9.8
//! SMR-obligations table the second column names the annotation kind
//! (`escape`, `validate` or `unlink`) that discharges it. The audit
//! cross-checks every row against the annotations in both directions.

use crate::analyze::{AnnotationKind, ORDERINGS};

/// One row of a §9 table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignRow {
    /// Invariant id (`FAMILY.site`) from the row's first column.
    pub id: String,
    /// [`AnnotationKind::Ord`] for an ordering-table row, else the
    /// §9.8 row's kind.
    pub kind: AnnotationKind,
    /// Orderings named in an ordering-table row's `Ordering` column
    /// (empty for §9.8 rows).
    pub orderings: Vec<String>,
    /// 1-based line in DESIGN.md.
    pub line: u32,
}

/// Extract the rows of every table in the §9 section of `text`: rows
/// whose first cell is an invariant id. Under the `### 9.8` heading
/// the second cell must name an annotation kind (other rows are
/// skipped); elsewhere the row is an ordering row.
pub fn parse_design(text: &str) -> Vec<DesignRow> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut in_obligations = false;
    let mut ordering_col: Option<usize> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("## ") {
            in_section = rest.starts_with("9.") || rest.starts_with("9 ");
            in_obligations = false;
            continue;
        }
        if let Some(rest) = line.strip_prefix("### ") {
            in_obligations = rest.starts_with("9.8");
            continue;
        }
        if !in_section || !line.starts_with('|') {
            continue;
        }
        let cells: Vec<String> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('`').trim().to_string())
            .collect();
        if !in_obligations && cells.iter().any(|c| c == "Ordering") {
            ordering_col = cells.iter().position(|c| c == "Ordering");
            continue;
        }
        let Some(id) = cells.first().filter(|c| is_invariant_id(c)) else {
            continue; // header, separator row or prose table
        };
        let (kind, orderings) = if in_obligations {
            let second = cells.get(1).map(String::as_str);
            let obligation = AnnotationKind::ALL[1..]
                .iter()
                .copied()
                .find(|k| Some(k.as_str()) == second);
            let Some(kind) = obligation else { continue };
            (kind, Vec::new())
        } else {
            let scope = match ordering_col {
                Some(col) => cells.get(col).cloned().unwrap_or_default(),
                None => line.to_string(),
            };
            let orderings = ORDERINGS
                .iter()
                .filter(|o| contains_word(&scope, o))
                .map(|o| o.to_string())
                .collect();
            (AnnotationKind::Ord, orderings)
        };
        rows.push(DesignRow {
            id: id.clone(),
            kind,
            orderings,
            line: (idx + 1) as u32,
        });
    }
    rows
}

/// `FAMILY.site` ids: uppercase family, a dot, then a site name.
pub fn is_invariant_id(s: &str) -> bool {
    let Some((family, site)) = s.split_once('.') else {
        return false;
    };
    !family.is_empty()
        && family
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        && !site.is_empty()
        && site
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

fn contains_word(haystack: &str, word: &str) -> bool {
    haystack.match_indices(word).any(|(i, _)| {
        let before = haystack[..i].chars().next_back();
        let after = haystack[i + word.len()..].chars().next();
        let boundary = |c: Option<char>| c.is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        boundary(before) && boundary(after)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Design
## 9. Hot-path memory model
### 9.1 Ordering table
| ID | Field | Operation | Ordering | Invariant |
|---|---|---|---|---|
| `LIST.traverse` | `node.succ` | traversal load | `Acquire` | pairs with the Release CAS |
| `LIST.insert-cas` | `pred.succ` | Insert CAS | success `Release`, failure `Acquire` | publishes init |
| not-an-id | x | y | `SeqCst` | prose row |

### 9.3 Auxiliary
| ID | Where | Ordering | Why |
|---|---|---|---|
| `STAT.len` | counters | `Relaxed` | statistic only |

### 9.8 SMR obligations
| ID | Kind | Where | Discharged by |
|---|---|---|---|
| `ESC.node-right` | escape | `Node::right` | caller's guard outlives the call |
| `VAL.list-read` | validate | `read_impl` | birth stamp re-check after Acquire fence |
| `UNLINK.list-del` | unlink | `SearchFrom` | succ CAS marked+flagged before retire |
| `BAD.kind` | teleport | nowhere | unknown kinds are skipped |

## 10. Something else
| `FAKE.row` | x | `Relaxed` | outside section |
";

    /// The ordering-table rows of `SAMPLE`.
    fn ordering_rows() -> Vec<DesignRow> {
        parse_design(SAMPLE)
            .into_iter()
            .filter(|r| r.kind == AnnotationKind::Ord)
            .collect()
    }

    #[test]
    fn parses_rows_with_ids_only() {
        let rows = ordering_rows();
        let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["LIST.traverse", "LIST.insert-cas", "STAT.len"]);
    }

    #[test]
    fn ordering_column_is_respected() {
        let rows = ordering_rows();
        assert_eq!(rows[0].orderings, ["Acquire"]);
        assert_eq!(rows[1].orderings, ["Acquire", "Release"]);
        assert_eq!(rows[2].orderings, ["Relaxed"]);
    }

    #[test]
    fn rationale_mentions_do_not_leak_into_orderings() {
        // Row 0's invariant cell mentions Release; only the Ordering
        // column counts.
        let rows = ordering_rows();
        assert!(!rows[0].orderings.contains(&"Release".to_string()));
    }

    #[test]
    fn obligations_rows_do_not_leak_into_ordering_rows() {
        // §9.8 cells mention orderings-adjacent words and carry
        // invariant ids, but they are not ordering rows.
        let rows = ordering_rows();
        assert!(rows.iter().all(|r| !r.id.starts_with("ESC.")
            && !r.id.starts_with("VAL.")
            && !r.id.starts_with("UNLINK.")));
    }

    #[test]
    fn parses_obligations_with_kinds() {
        let rows = parse_design(SAMPLE);
        let got: Vec<(&str, AnnotationKind)> = rows
            .iter()
            .filter(|r| r.kind != AnnotationKind::Ord)
            .map(|r| (r.id.as_str(), r.kind))
            .collect();
        assert_eq!(
            got,
            [
                ("ESC.node-right", AnnotationKind::Escape),
                ("VAL.list-read", AnnotationKind::Validate),
                ("UNLINK.list-del", AnnotationKind::Unlink),
            ]
        );
    }

    #[test]
    fn id_grammar() {
        assert!(is_invariant_id("LIST.traverse"));
        assert!(is_invariant_id("EPOCH.pin"));
        assert!(is_invariant_id("MET.shard-owner"));
        assert!(!is_invariant_id("lowercase.id"));
        assert!(!is_invariant_id("NODOT"));
        assert!(!is_invariant_id("---"));
        assert!(!is_invariant_id("ID"));
    }
}
