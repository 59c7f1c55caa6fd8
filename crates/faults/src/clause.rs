//! The clause grammar shared by chip and fleet fault plans:
//! semicolon-separated `kind[@targets][:key=value,...]` clauses, targets
//! `all` or `+`-separated ids, and half-open `from`/`to` windows. Each
//! plan kind maps the remaining keys onto its own fault kinds and range
//! checks.

use std::str::FromStr;

use gpm_types::{GpmError, Result};

use crate::plan::IntervalWindow;

/// One clause of a fault spec, split into the parts every plan kind
/// shares.
pub(crate) struct Clause<'a, T> {
    /// The whole clause text, quoted in error messages.
    pub raw: &'a str,
    /// The fault-kind name before any `@` or `:`.
    pub kind: &'a str,
    /// Explicit targets, or `None` for `all` (also the default).
    pub targets: Option<Vec<T>>,
    /// The clause's active window (`from`/`to` keys, default always).
    pub window: IntervalWindow,
    /// Every other `key=value` pair, trimmed, in spec order.
    pub args: Vec<(&'a str, &'a str)>,
}

impl<T> Clause<'_, T> {
    /// The error for a key the clause's fault kind does not take.
    pub fn unknown_key(&self, key: &str) -> GpmError {
        GpmError::FaultSpec(format!("unknown key `{key}` in `{}`", self.raw))
    }
}

/// Splits `spec` into its clauses. `what` names the spec in the
/// no-clauses error ("fault spec"); `target` names one target in the
/// bad-target error ("core index").
///
/// # Errors
///
/// Returns [`GpmError::FaultSpec`] for a bad target, a pair that is not
/// `key=value`, a bad `from`/`to` integer, an empty window, or a spec
/// with no clauses.
pub(crate) fn parse_clauses<'a, T: FromStr>(
    spec: &'a str,
    what: &str,
    target: &str,
) -> Result<Vec<Clause<'a, T>>> {
    let bad = |msg: String| GpmError::FaultSpec(msg);
    let mut clauses = Vec::new();
    for raw in spec.split(';') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (head, args) = match raw.split_once(':') {
            Some((h, a)) => (h.trim(), Some(a)),
            None => (raw, None),
        };
        let (kind, targets) = match head.split_once('@') {
            Some((k, t)) => (k.trim(), parse_targets(t.trim(), target)?),
            None => (head, None),
        };

        let mut window = IntervalWindow::ALWAYS;
        let mut rest = Vec::new();
        for kv in args.into_iter().flat_map(|a| a.split(',')) {
            let kv = kv.trim();
            if kv.is_empty() {
                continue;
            }
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| bad(format!("`{kv}` is not key=value")))?;
            let value = value.trim();
            match key.trim() {
                "from" => window.from = parse_num(value, "from")?,
                "to" => window.to = Some(parse_num(value, "to")?),
                key => rest.push((key, value)),
            }
        }
        if let Some(to) = window.to {
            if to <= window.from {
                return Err(bad(format!(
                    "empty window [{}, {to}) in `{raw}`",
                    window.from
                )));
            }
        }
        clauses.push(Clause {
            raw,
            kind,
            targets,
            window,
            args: rest,
        });
    }
    if clauses.is_empty() {
        return Err(bad(format!("{what} contains no clauses")));
    }
    Ok(clauses)
}

fn parse_targets<T: FromStr>(s: &str, target: &str) -> Result<Option<Vec<T>>> {
    if s.eq_ignore_ascii_case("all") {
        return Ok(None);
    }
    s.split('+')
        .map(|p| {
            p.trim()
                .parse::<T>()
                .map_err(|_| GpmError::FaultSpec(format!("bad {target} `{p}`")))
        })
        .collect::<Result<Vec<_>>>()
        .map(Some)
}

/// Parses the value of `key` as an integer or a float.
pub(crate) fn parse_num<N: FromStr>(s: &str, key: &str) -> Result<N> {
    s.parse()
        .map_err(|_| GpmError::FaultSpec(format!("bad number for {key}: `{s}`")))
}
