//! Tokenizer for the SQL subset: one pass over the text. A token borrows
//! the text it was read from, and a word's keyword is decided here, once.

use crate::ast::AggFunc;
use pd_common::{Error, Result};

/// A word the parser matches on. Keywords are case-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keyword {
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Limit,
    As,
    And,
    Or,
    Not,
    In,
    Union,
    All,
    Between,
    Asc,
    Desc,
    Distinct,
    /// `COUNT`, `SUM`, `MIN`, `MAX` or `AVG`.
    Agg(AggFunc),
}

impl Keyword {
    /// The keyword `word` spells, if any.
    pub(crate) fn of(word: &str) -> Option<Keyword> {
        use Keyword::*;
        // No keyword is longer than `distinct`.
        let mut lower = [0u8; 8];
        let lower = lower.get_mut(..word.len())?;
        lower.copy_from_slice(word.as_bytes());
        lower.make_ascii_lowercase();
        Some(match &*lower {
            b"select" => Select,
            b"from" => From,
            b"where" => Where,
            b"group" => Group,
            b"by" => By,
            b"having" => Having,
            b"order" => Order,
            b"limit" => Limit,
            b"as" => As,
            b"and" => And,
            b"or" => Or,
            b"not" => Not,
            b"in" => In,
            b"union" => Union,
            b"all" => All,
            b"between" => Between,
            b"asc" => Asc,
            b"desc" => Desc,
            b"distinct" => Distinct,
            b"count" => Agg(AggFunc::Count),
            b"sum" => Agg(AggFunc::Sum),
            b"min" => Agg(AggFunc::Min),
            b"max" => Agg(AggFunc::Max),
            b"avg" => Agg(AggFunc::Avg),
            _ => return None,
        })
    }

    /// A reserved word ends an expression and names no table, column or
    /// alias; the others are names wherever the grammar takes a name.
    pub(crate) fn is_reserved(self) -> bool {
        use Keyword::*;
        !matches!(self, Asc | Desc | Distinct | Agg(_))
    }
}

/// A lexical token. Text-bearing tokens borrow the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    /// A name or keyword as written, and the keyword it spells, if any.
    Word(&'a str, Option<Keyword>),
    /// The body of a string literal, `'...'` or `"..."`, its backslash
    /// escapes as written ([`unescape`] resolves them).
    Str(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    LParen,
    RParen,
    Comma,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Semicolon,
}

impl Token<'_> {
    /// Is this token the keyword `kw`?
    pub(crate) fn is(self, kw: Keyword) -> bool {
        matches!(self, Token::Word(_, Some(word)) if word == kw)
    }
}

/// Tokenize `input`; returns the token list (without EOF marker).
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    // A token spans four bytes of text or more, most of the time: one
    // allocation holds them all.
    let mut tokens = Vec::with_capacity(bytes.len() / 4 + 2);
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let next = bytes.get(i + 1).copied();
        i += 1;
        let token = match bytes[start] {
            b' ' | b'\t' | b'\r' | b'\n' => continue,
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b',' => Token::Comma,
            b'*' => Token::Star,
            b'+' => Token::Plus,
            b'/' => Token::Slash,
            b';' => Token::Semicolon,
            // `--` starts a comment to end of line.
            b'-' if next == Some(b'-') => {
                i = input[i..].find('\n').map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'-' => Token::Minus,
            b'=' => {
                // tolerate `==`
                i += usize::from(next == Some(b'='));
                Token::Eq
            }
            b'!' | b'<' | b'>' => {
                let (token, len) = match (bytes[start], next) {
                    (b'<', Some(b'=')) => (Token::Le, 2),
                    (b'<', Some(b'>')) | (b'!', Some(b'=')) => (Token::Ne, 2),
                    (b'>', Some(b'=')) => (Token::Ge, 2),
                    (b'<', _) => (Token::Lt, 1),
                    (b'>', _) => (Token::Gt, 1),
                    _ => return Err(Error::Parse(format!("unexpected `!` at byte {start}"))),
                };
                i = start + len;
                token
            }
            quote @ (b'\'' | b'"') => {
                // An escape takes the byte after it: the bytes that continue
                // a multi-byte character are no quote and no backslash.
                let mut escaped = false;
                let len = (bytes[i..].iter())
                    .position(|&b| {
                        let end = b == quote && !escaped;
                        escaped = b == b'\\' && !escaped;
                        end
                    })
                    .ok_or_else(|| Error::Parse("unterminated string literal".into()))?;
                i += len + 1;
                Token::Str(&input[start + 1..i - 1])
            }
            b'0'..=b'9' | b'.' => {
                let (mut dot, mut exp) = (bytes[start] == b'.', false);
                while let Some(&b) = bytes.get(i) {
                    match b {
                        b'0'..=b'9' => {}
                        b'.' if !dot && !exp => dot = true,
                        b'e' | b'E' if !exp => {
                            exp = true;
                            i += usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
                        }
                        _ => break,
                    }
                    i += 1;
                }
                let text = &input[start..i];
                let bad = |kind| Error::Parse(format!("bad {kind} literal `{text}`"));
                match text {
                    "." => return Err(Error::Parse("lone `.` is not a number".into())),
                    _ if dot || exp => Token::Float(text.parse().map_err(|_| bad("float"))?),
                    _ => Token::Int(text.parse().map_err(|_| bad("integer"))?),
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                while i < bytes.len()
                    && matches!(bytes[i], b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.')
                {
                    i += 1;
                }
                let word = &input[start..i];
                Token::Word(word, Keyword::of(word))
            }
            other => {
                return Err(Error::Parse(format!(
                    "unexpected character `{}` at byte {start}",
                    other as char
                )))
            }
        };
        tokens.push(token);
    }
    Ok(tokens)
}

/// The value of a string literal's body: `\n`, `\t` and `\r` are control
/// characters, and a backslash before any other character is that
/// character.
pub(crate) fn unescape(body: &str) -> String {
    if !body.contains('\\') {
        return body.to_owned();
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        let escaped = if c == '\\' { chars.next() } else { None };
        out.push(match escaped {
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some(other) => other,
            None => c,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_paper_query() {
        let toks = tokenize(
            r#"SELECT search_string, COUNT(*) as c FROM data
               WHERE search_string IN ("la redoute", "voyages sncf")
               GROUP BY search_string ORDER BY c DESC LIMIT 10;"#,
        )
        .unwrap();
        assert!(toks[0].is(Keyword::Select));
        assert!(toks.contains(&Token::Str("la redoute")));
        assert!(toks.contains(&Token::Int(10)));
        assert_eq!(*toks.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn numbers_int_float_exponent() {
        assert_eq!(tokenize("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(tokenize("4.25").unwrap(), vec![Token::Float(4.25)]);
        assert_eq!(tokenize("1e3").unwrap(), vec![Token::Float(1000.0)]);
        assert_eq!(tokenize("2.5E-2").unwrap(), vec![Token::Float(0.025)]);
    }

    #[test]
    fn operators_and_comparisons() {
        let toks = tokenize("a <= b >= c != d <> e = f < g > h").unwrap();
        let ops: Vec<&Token> = toks.iter().filter(|t| !matches!(t, Token::Word(..))).collect();
        assert_eq!(
            ops,
            vec![
                &Token::Le,
                &Token::Ge,
                &Token::Ne,
                &Token::Ne,
                &Token::Eq,
                &Token::Lt,
                &Token::Gt
            ]
        );
    }

    #[test]
    fn strings_with_escapes_and_quotes() {
        assert_eq!(tokenize(r#"'it\'s'"#).unwrap(), vec![Token::Str(r"it\'s")]);
        assert_eq!(unescape(r"it\'s"), "it's");
        assert_eq!(tokenize(r#""tab\there""#).unwrap(), vec![Token::Str(r"tab\there")]);
        assert_eq!(unescape(r"tab\there \\ \ü"), "tab\there \\ ü");
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT -- top ten\n c").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn dotted_identifiers_allowed() {
        // Table names in the logs look like `logs.powerdrill.queries`.
        let toks = tokenize("logs.powerdrill.queries").unwrap();
        assert_eq!(toks, vec![Token::Word("logs.powerdrill.queries", None)]);
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(tokenize("'karnevalskostüme'").unwrap(), vec![Token::Str("karnevalskostüme")]);
    }

    #[test]
    fn keywords_are_decided_once_case_blind() {
        let toks = tokenize("SeLeCt distinct distinctly Count").unwrap();
        let kws: Vec<Option<Keyword>> = toks
            .iter()
            .map(|t| match t {
                Token::Word(_, kw) => *kw,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            kws,
            [
                Some(Keyword::Select),
                Some(Keyword::Distinct),
                None,
                Some(Keyword::Agg(AggFunc::Count))
            ]
        );
        assert_eq!(
            toks[3],
            Token::Word("Count", Some(Keyword::Agg(AggFunc::Count))),
            "a word keeps its spelling"
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(tokenize("SELECT @x").is_err());
        assert!(tokenize("a ! b").is_err());
    }
}
