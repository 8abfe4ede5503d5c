//! Effective-TLD ("public suffix") handling.

use std::collections::HashSet;

use crate::name::Name;

/// A public-suffix list with the paper's "effective TLD" semantics (§III-B).
///
/// The paper treats delegation-point suffixes such as `com.cn` and `co.uk`
/// as TLDs, "similar to the public suffix list from Mozilla" but extended
/// with dynamic-DNS zones. This type supports:
///
/// * exact suffix rules (`com`, `co.uk`),
/// * wildcard rules (`*.ck` meaning every direct child of `ck` is a suffix),
/// * exception rules (`!www.ck` carving a registrable name out of a wildcard).
///
/// [`SuffixList::builtin`] ships a representative subset sufficient for every
/// name the workspace's workload generator can emit; callers monitoring real
/// traffic can extend it with [`SuffixList::add_rule`] or build one from a
/// full PSL snapshot with [`SuffixList::from_rules`].
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::{Name, SuffixList};
///
/// let psl = SuffixList::builtin();
/// let d: Name = "a.b.example.co.uk".parse()?;
/// assert_eq!(psl.effective_tld(&d).unwrap().to_string(), "co.uk");
/// assert_eq!(psl.registered_domain(&d).unwrap().to_string(), "example.co.uk");
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuffixList {
    // Each rule's name, keyed by its labels rightmost first and joined
    // with dots (`uk.co` for `co.uk`): every candidate suffix of a name
    // is then a prefix of one string, so a query needs no allocation.
    exact: HashSet<String>,
    wildcard: HashSet<String>,
    exception: HashSet<String>,
}

/// `name`'s labels rightmost first, joined with dots.
fn reversed_key(name: &Name) -> String {
    let mut key = String::with_capacity(name.presentation_len());
    for label in name.labels().iter().rev() {
        if !key.is_empty() {
            key.push('.');
        }
        key.push_str(label.as_str());
    }
    key
}

/// Representative rules: generic TLDs, common ccTLDs and second-level
/// registries, plus dynamic-DNS zones (the paper's stated superset of the
/// Mozilla list), and the wildcard/exception pair that exercises the full
/// rule grammar.
const BUILTIN_RULES: &[&str] = &[
    // Generic TLDs.
    "com",
    "net",
    "org",
    "edu",
    "gov",
    "mil",
    "int",
    "info",
    "biz",
    "name",
    "mobi",
    "tv",
    "cc",
    "ws",
    "me",
    "io",
    "co",
    "us",
    "ca",
    "eu",
    "de",
    "fr",
    "nl",
    "it",
    "es",
    "se",
    "no",
    "fi",
    "dk",
    "ch",
    "at",
    "be",
    "ru",
    "pl",
    "cz",
    "jp",
    "kr",
    "cn",
    "in",
    "br",
    "mx",
    "au",
    "nz",
    "arpa",
    "dk",
    // Second-level registries.
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "me.uk",
    "net.uk",
    "com.cn",
    "net.cn",
    "org.cn",
    "gov.cn",
    "com.au",
    "net.au",
    "org.au",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "co.kr",
    "or.kr",
    "com.br",
    "net.br",
    "org.br",
    "co.in",
    "net.in",
    "org.in",
    "com.mx",
    "org.mx",
    "co.nz",
    "net.nz",
    "org.nz",
    "in-addr.arpa",
    "ip6.arpa",
    // Wildcard + exception (PSL grammar exercised end-to-end).
    "*.ck",
    "!www.ck",
    // Dynamic-DNS zones: the paper's stated correction to the Mozilla list.
    "dyndns.org",
    "no-ip.com",
    "no-ip.org",
    "dynalias.com",
    "homeip.net",
    "getmyip.com",
    "selfip.net",
    "dnsalias.com",
    // DNSBL infrastructure behaves like a registry for its sub-zones.
    "nerd.dk",
];

impl SuffixList {
    /// Creates an empty list. With no rules every single-label name is
    /// treated as its own suffix (the lexical-TLD fallback).
    pub fn new() -> Self {
        SuffixList::default()
    }

    /// The built-in representative rule set (see type-level docs).
    pub fn builtin() -> Self {
        SuffixList::from_rules(BUILTIN_RULES.iter().copied())
            .expect("builtin suffix rules are valid")
    }

    /// Builds a list from PSL-style rule lines.
    ///
    /// Supported syntax per line: `suffix`, `*.suffix`, `!exception`.
    /// Blank lines and `//` comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns the offending rule if a name fails to parse.
    pub fn from_rules<'a, I>(rules: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut list = SuffixList::new();
        for raw in rules {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            list.add_rule(line).map_err(|_| line.to_owned())?;
        }
        Ok(list)
    }

    /// Adds a single rule (`suffix`, `*.suffix` or `!exception`).
    ///
    /// # Errors
    ///
    /// Returns an error if the embedded name fails to parse.
    pub fn add_rule(&mut self, rule: &str) -> Result<(), crate::NameParseError> {
        let (set, rest) = if let Some(rest) = rule.strip_prefix("!") {
            (&mut self.exception, rest)
        } else if let Some(rest) = rule.strip_prefix("*.") {
            (&mut self.wildcard, rest)
        } else {
            (&mut self.exact, rule)
        };
        set.insert(reversed_key(&rest.parse()?));
        Ok(())
    }

    /// Number of rules across all three rule kinds.
    pub fn len(&self) -> usize {
        self.exact.len() + self.wildcard.len() + self.exception.len()
    }

    /// Returns `true` if no rules have been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The effective TLD of `name`: the longest matching suffix rule.
    ///
    /// Falls back to the lexical TLD (rightmost label) when no rule
    /// matches, which mirrors the PSL's implicit `*` rule. Returns `None`
    /// only for the root name.
    pub fn effective_tld(&self, name: &Name) -> Option<Name> {
        if name.is_root() {
            return None;
        }
        name.nld(self.etld_depth(&reversed_key(name)))
    }

    /// The registered (registrable) domain: one label below the effective
    /// TLD. This is the paper's "effective 2LD", the starting point of
    /// Algorithm 1. Returns `None` if `name` is itself a suffix or the
    /// root.
    pub fn registered_domain(&self, name: &Name) -> Option<Name> {
        let etld = self.effective_tld(name)?;
        let want = etld.depth() + 1;
        if name.depth() < want {
            return None;
        }
        name.nld(want)
    }

    /// Returns `true` if `name` is exactly a public suffix.
    pub fn is_suffix(&self, name: &Name) -> bool {
        self.is_suffix_reversed(&reversed_key(name))
    }

    /// [`SuffixList::is_suffix`] for a name given as its labels rightmost
    /// first, joined with dots (`uk.co` asks about `co.uk`; the empty
    /// string is the root). A tree walk that descends from the TLDs keeps
    /// this form in one growing buffer, so it can ask about every node
    /// without building a [`Name`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dnsnoise_dns::SuffixList;
    ///
    /// let psl = SuffixList::builtin();
    /// assert!(psl.is_suffix_reversed("uk.co"));
    /// assert!(!psl.is_suffix_reversed("uk.co.example"));
    /// ```
    pub fn is_suffix_reversed(&self, labels: &str) -> bool {
        !labels.is_empty() && self.etld_depth(labels) == labels.split('.').count()
    }

    /// The effective TLD's label count for a non-root name in reversed
    /// form. The candidate suffixes of depth `n = 1, 2, …` are the
    /// prefixes of `labels` that end at a dot or at the end; the deepest
    /// candidate some rule matches wins, an exception rule first, then
    /// an exact rule, then a wildcard rule on the candidate's parent. An
    /// exception makes the candidate registrable, so its parent (one
    /// label shorter) is the suffix.
    fn etld_depth(&self, labels: &str) -> usize {
        let mut depth = 1; // the lexical-TLD fallback
        let mut parent_end: Option<usize> = None;
        let ends = labels.match_indices('.').map(|(at, _)| at).chain([labels.len()]);
        for (n, end) in (1..).zip(ends) {
            let candidate = &labels[..end];
            if self.exception.contains(candidate) {
                depth = n - 1;
            } else if self.exact.contains(candidate)
                || parent_end.is_some_and(|p| self.wildcard.contains(&labels[..p]))
            {
                depth = n;
            }
            parent_end = Some(end);
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn plain_tld() {
        let psl = SuffixList::builtin();
        assert_eq!(psl.effective_tld(&n("www.example.com")).unwrap(), n("com"));
        assert_eq!(psl.registered_domain(&n("www.example.com")).unwrap(), n("example.com"));
    }

    #[test]
    fn second_level_registry() {
        let psl = SuffixList::builtin();
        assert_eq!(psl.effective_tld(&n("a.b.example.co.uk")).unwrap(), n("co.uk"));
        assert_eq!(psl.registered_domain(&n("a.b.example.co.uk")).unwrap(), n("example.co.uk"));
        // com.cn explicitly called out in §III-B.
        assert_eq!(psl.effective_tld(&n("x.example.com.cn")).unwrap(), n("com.cn"));
    }

    #[test]
    fn wildcard_rule() {
        let psl = SuffixList::builtin();
        // *.ck: every direct child of ck is a suffix.
        assert_eq!(psl.effective_tld(&n("shop.anything.ck")).unwrap(), n("anything.ck"));
        assert_eq!(psl.registered_domain(&n("shop.anything.ck")).unwrap(), n("shop.anything.ck"));
    }

    #[test]
    fn exception_rule() {
        let psl = SuffixList::builtin();
        // !www.ck: www.ck is registrable despite *.ck.
        assert_eq!(psl.effective_tld(&n("a.www.ck")).unwrap(), n("ck"));
        assert_eq!(psl.registered_domain(&n("a.www.ck")).unwrap(), n("www.ck"));
    }

    #[test]
    fn dynamic_dns_zone_is_suffix() {
        let psl = SuffixList::builtin();
        assert_eq!(psl.registered_domain(&n("myhost.dyndns.org")).unwrap(), n("myhost.dyndns.org"));
        assert!(psl.is_suffix(&n("dyndns.org")));
    }

    #[test]
    fn unknown_tld_falls_back_to_lexical() {
        let psl = SuffixList::builtin();
        assert_eq!(psl.effective_tld(&n("foo.bar.zz")).unwrap(), n("zz"));
        assert_eq!(psl.registered_domain(&n("foo.bar.zz")).unwrap(), n("bar.zz"));
    }

    #[test]
    fn suffix_itself_has_no_registered_domain() {
        let psl = SuffixList::builtin();
        assert_eq!(psl.registered_domain(&n("co.uk")), None);
        assert_eq!(psl.registered_domain(&n("com")), None);
        assert!(psl.is_suffix(&n("co.uk")));
        assert!(!psl.is_suffix(&n("example.co.uk")));
    }

    #[test]
    fn reversed_form_agrees_with_names() {
        let psl = SuffixList::builtin();
        for (name, reversed) in [
            ("co.uk", "uk.co"),
            ("example.co.uk", "uk.co.example"),
            ("com", "com"),
            ("anything.ck", "ck.anything"),
            ("www.ck", "ck.www"),
            ("dyndns.org", "org.dyndns"),
            ("bar.zz", "zz.bar"),
            ("zz", "zz"),
        ] {
            assert_eq!(psl.is_suffix(&n(name)), psl.is_suffix_reversed(reversed), "{name}");
        }
        assert!(!psl.is_suffix_reversed(""), "the root is no suffix");
    }

    #[test]
    fn root_has_no_suffix() {
        let psl = SuffixList::builtin();
        assert_eq!(psl.effective_tld(&Name::root()), None);
        assert_eq!(psl.registered_domain(&Name::root()), None);
    }

    #[test]
    fn from_rules_skips_comments_and_reports_bad_rule() {
        let ok = SuffixList::from_rules(["// header", "", "com", "*.ck", "!www.ck"]).unwrap();
        assert_eq!(ok.len(), 3);
        let err = SuffixList::from_rules(["bad..rule"]).unwrap_err();
        assert_eq!(err, "bad..rule");
    }
}
