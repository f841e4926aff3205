//! Known answers the benchmark checks every run against.

use std::collections::BTreeSet;

use bootstrap_checks::{CheckReport, Finding};

/// A finding reduced to what the labels name: `(checker, var, severity)`.
pub type Key = (String, String, String);

/// Missed plus extra findings of `found` against `expected`.
pub fn label_diff(found: &BTreeSet<Key>, expected: &BTreeSet<Key>) -> u64 {
    (found.difference(expected).count() + expected.difference(found).count()) as u64
}

/// The report's findings as [`Key`]s, in report order.
pub fn keys(report: &CheckReport) -> Vec<Key> {
    report
        .findings
        .iter()
        .map(|f| {
            (
                f.checker.name().to_string(),
                f.var.clone(),
                f.severity.label().to_string(),
            )
        })
        .collect()
}

/// Findings rendered completely, in report order.
pub fn full_findings(findings: &[Finding]) -> Vec<String> {
    findings
        .iter()
        .map(|f| {
            format!(
                "{:?} {:?} {} {:?} {} {:?} {} {:?}",
                f.checker, f.severity, f.func, f.loc, f.var, f.object, f.message, f.precision
            )
        })
        .collect()
}

/// Missed plus extra entries between two lists compared as multisets.
pub fn multiset_diff<T: Ord + Clone>(found: &[T], expected: &[T]) -> u64 {
    let (mut a, mut b) = (found.to_vec(), expected.to_vec());
    a.sort();
    b.sort();
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (diff, i) = (diff + 1, i + 1),
            std::cmp::Ordering::Greater => (diff, j) = (diff + 1, j + 1),
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    diff + (a.len() - i + b.len() - j) as u64
}

/// The findings the `daemon-edit` workspace must produce: exactly one
/// `null-deref` warning on `f{i}_p63` for every file in variant 1.
pub fn daemon_expected(variants: &[u8]) -> Vec<Key> {
    variants
        .iter()
        .enumerate()
        .filter(|(_, &v)| v == 1)
        .map(|(i, _)| {
            (
                "null-deref".to_string(),
                format!("f{i}_p63"),
                "warning".to_string(),
            )
        })
        .collect()
}

/// Parses the daemon's findings text (`severity[checker] pos: message`
/// with the variable as the message's first back-quoted name). A line
/// that does not parse becomes a key naming the whole line, so it counts
/// as an extra finding.
pub fn parse_findings_text(text: &str) -> Vec<Key> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| parse_line(line).unwrap_or_else(|| ("?".into(), line.into(), "?".into())))
        .collect()
}

fn parse_line(line: &str) -> Option<Key> {
    let (severity, rest) = line.split_once('[')?;
    let (checker, rest) = rest.split_once(']')?;
    let var = rest.split('`').nth(1)?;
    Some((checker.to_string(), var.to_string(), severity.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(c: &str, v: &str, s: &str) -> Key {
        (c.into(), v.into(), s.into())
    }

    #[test]
    fn label_diff_counts_missed_plus_extra() {
        let expected: BTreeSet<Key> = [
            key("null-deref", "nd0_p", "error"),
            key("use-after-free", "uaf0_q", "error"),
            key("race", "rc0_c", "error"),
        ]
        .into();
        assert_eq!(label_diff(&expected.clone(), &expected), 0);
        let mut found = expected.clone();
        found.remove(&key("race", "rc0_c", "error"));
        assert_eq!(label_diff(&found, &expected), 1);
        found.insert(key("double-free", "df9_q", "error"));
        found.insert(key("null-deref", "nd0_p", "warning"));
        assert_eq!(label_diff(&found, &expected), 3);
        assert_eq!(label_diff(&BTreeSet::new(), &expected), 3);
    }

    #[test]
    fn multiset_diff_counts_duplicates() {
        assert_eq!(multiset_diff(&[1, 2, 2], &[1, 2, 2]), 0);
        assert_eq!(multiset_diff(&[1, 2, 2], &[1, 2]), 1);
        assert_eq!(multiset_diff(&[3], &[1, 2]), 3);
        assert_eq!(multiset_diff::<u8>(&[], &[]), 0);
    }

    #[test]
    fn variants_map_to_one_warning_per_variant_one_file() {
        assert!(daemon_expected(&[0, 0, 0]).is_empty());
        assert_eq!(
            daemon_expected(&[0, 1, 0, 1]),
            vec![
                key("null-deref", "f1_p63", "warning"),
                key("null-deref", "f3_p63", "warning"),
            ]
        );
    }

    #[test]
    fn findings_text_parses_into_keys() {
        let text = "warning[null-deref] f3_ent:71: dereference of `f3_p63` which may be NULL\n\
                    error[use-after-free] main:9: dereference of `q` may access `heap` freed at main:8\n\
                    garbage\n";
        assert_eq!(
            parse_findings_text(text),
            vec![
                key("null-deref", "f3_p63", "warning"),
                key("use-after-free", "q", "error"),
                key("?", "garbage", "?"),
            ]
        );
        assert_eq!(
            multiset_diff(
                &parse_findings_text(text)[..1],
                &daemon_expected(&[0, 0, 0, 1])
            ),
            0
        );
    }
}
